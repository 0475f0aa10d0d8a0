package live

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestStatsMergeMatchesRing folds per-node snapshots with each stats
// type's Merge after a kill and its failover, and checks the fold is
// what the Ring getter reports: cache and hop counters over every node
// (a dead node's work stays counted), membership over the survivors.
// Every survivor reports the ring-wide failover counters, so the fold
// must come out at the ring's own counters, not at one copy per node.
func TestStatsMergeMatchesRing(t *testing.T) {
	r := newReplicaRing(t, 3, 1)
	defer r.Close()
	if _, err := r.Node(0).ExecSQL("select val from c where t_id >= 2"); err != nil {
		t.Fatal(err)
	}
	r.KillNode(1)
	waitFor(t, "death detection + failover", 15*time.Second, func() bool {
		return r.isDead(1) && r.UnownedFragments() == 0
	})
	all, survivors := r.nodeList(), []*Node{r.Node(0), r.Node(2)}

	var memb MembershipStats
	for _, tc := range []struct {
		name   string
		merged func() any
		ring   func() any
	}{
		{"cache", func() any {
			var s CacheStats
			for _, n := range all {
				s.Merge(n.CacheStats())
			}
			return s
		}, func() any { return r.CacheStats() }},
		{"hop", func() any {
			var s HopStats
			for _, n := range all {
				s.Merge(n.HopStats())
			}
			return s
		}, func() any { return r.HopStats() }},
		{"membership", func() any {
			var s MembershipStats
			for _, n := range survivors {
				s.Merge(n.MembershipStats())
			}
			memb = s
			return s
		}, func() any { return r.MembershipStats() }},
	} {
		// Heartbeats keep the beat and wire counters moving, so compare
		// a fold and the getter read back to back, retrying until no
		// beat landed between them.
		waitFor(t, tc.name+" fold equal to the ring's", 5*time.Second, func() bool {
			return tc.merged() == tc.ring()
		})
	}

	if memb.Failovers != 1 || memb.Failovers != atomic.LoadInt64(&r.failovers) {
		t.Fatalf("merged failovers = %d, ring counted %d", memb.Failovers, atomic.LoadInt64(&r.failovers))
	}
	if memb.Promotions == 0 || memb.Promotions != atomic.LoadInt64(&r.promotions) {
		t.Fatalf("merged promotions = %d, ring counted %d", memb.Promotions, atomic.LoadInt64(&r.promotions))
	}
	if memb.LostFrags != atomic.LoadInt64(&r.lostFrags) {
		t.Fatalf("merged lost fragments = %d, ring counted %d", memb.LostFrags, atomic.LoadInt64(&r.lostFrags))
	}
	if !memb.Enabled || memb.Dead != 1 || memb.Alive != 2 {
		t.Fatalf("merged view %+v, want 2 alive / 1 dead", memb)
	}
}
