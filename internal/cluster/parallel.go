package cluster

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file implements the §6.1 query-processing extensions:
//
//   - the nomadic phase: a query is not bound to its entry node; it
//     asks the ring for bids and settles on the cheapest node;
//   - intra-query parallelism: a query splits into sub-queries over
//     disjoint BAT subsets that settle on different nodes and merge
//     their results at the end.

// SubmitNomadic schedules the query like Submit, but at arrival time
// the query chases its data requests upstream and settles on the node
// with the lowest bid (fewest outstanding queries) instead of its
// entry node.
func (c *Cluster) SubmitNomadic(spec QuerySpec) {
	c.queriesTotal++
	c.sim.ScheduleAt(sim.Time(spec.Arrival), func() {
		if best := c.leastLoadedNodes(1); len(best) == 1 {
			spec.Node = core.NodeID(best[0])
		}
		c.nodes[spec.Node].startQuery(spec, nil)
	})
}

// parallelQuery coordinates the sub-queries of one split query.
type parallelQuery struct {
	c       *Cluster
	spec    QuerySpec
	start   sim.Time
	pending int
	failed  bool
}

// SubmitParallel splits the query's steps into up to k sub-queries over
// disjoint BAT subsets, settles each on a different lightly-loaded node
// (nomadic bidding), and merges: the query finishes when every
// sub-query has finished. Metrics account one registered/finished query.
func (c *Cluster) SubmitParallel(spec QuerySpec, k int) {
	if k < 1 {
		k = 1
	}
	c.queriesTotal++
	c.sim.ScheduleAt(sim.Time(spec.Arrival), func() {
		parts := splitSteps(spec.Steps, k)
		nodes := c.leastLoadedNodes(len(parts))
		pq := &parallelQuery{c: c, spec: spec, start: c.sim.Now(), pending: len(parts)}
		c.m.Registered.Add(c.sim.Now().Seconds())
		for i, steps := range parts {
			node := spec.Node
			if i < len(nodes) {
				node = core.NodeID(nodes[i])
			}
			sub := QuerySpec{
				ID:    spec.ID<<8 | core.QueryID(i+1),
				Node:  node,
				Steps: steps,
				Tag:   spec.Tag,
			}
			c.nodes[node].startQuery(sub, pq)
		}
	})
}

// splitSteps partitions steps round-robin into at most k non-empty
// disjoint subsets.
func splitSteps(steps []Step, k int) [][]Step {
	if k > len(steps) {
		k = len(steps)
	}
	if k < 1 {
		k = 1
	}
	parts := make([][]Step, k)
	for i, s := range steps {
		parts[i%k] = append(parts[i%k], s)
	}
	return parts
}

// childDone merges one finished sub-query.
func (pq *parallelQuery) childDone(failed bool) {
	pq.pending--
	if failed {
		pq.failed = true
	}
	if pq.pending > 0 {
		return
	}
	c := pq.c
	c.queriesDone++
	now := c.sim.Now()
	if pq.failed {
		c.m.Errors++
		return
	}
	c.m.Finished.Add(now.Seconds())
	c.m.Lifetime.Observe(now.Sub(pq.start).Seconds())
	if pq.spec.Tag != "" {
		ev := c.m.FinishedByTag[pq.spec.Tag]
		if ev == nil {
			ev = &metrics.Events{Name: "finished-" + pq.spec.Tag}
			c.m.FinishedByTag[pq.spec.Tag] = ev
		}
		ev.Add(now.Seconds())
	}
}
