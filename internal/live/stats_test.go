package live

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mal"
	"repro/internal/minisql"
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

// TestRevolutionTime: a fresh ring has measured no revolution, and a
// cache-less ring whose queries circulate fragments has.
func TestRevolutionTime(t *testing.T) {
	cols, schema := fragColumns(2000)
	cfg := DefaultConfig()
	cfg.FragmentRows = 256
	cfg.CacheBytes = 0
	r, err := NewRing(3, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rev := r.RevolutionTime(); rev != 0 {
		t.Fatalf("a fresh ring measured a %v revolution", rev)
	}
	waitFor(t, "a fragment to come full circle twice", 10*time.Second, func() bool {
		if _, err := r.Node(0).ExecSQL("select sum(v) from big"); err != nil {
			t.Fatal(err)
		}
		return r.RevolutionTime() > 0
	})
}

// TestQuiesce: an idle ring is quiet at once; a query held in a ring
// wait keeps it busy past the timeout, until the query is cancelled.
func TestQuiesce(t *testing.T) {
	cols, _ := fragColumns(2000)
	schema := minisql.MapSchema{"big": {"v", "k", "ghost"}, "dim": {"id", "name"}}
	cfg := DefaultConfig()
	cfg.FragmentRows = 256
	cfg.CacheBytes = 0
	r, err := NewRing(3, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Quiesce(time.Second) {
		t.Fatal("an idle ring did not quiesce")
	}
	real, _ := r.Fragments("big.v")
	stuck := stuckFragments(r.Node(1), len(real))
	r.idsMu.Lock()
	r.cols["big.ghost"] = &colFrags{ids: stuck}
	r.idsMu.Unlock()

	n := r.Node(0)
	res := make(chan error, 1)
	go func() {
		_, err := n.ExecSQL("select count(*) from big where ghost < 5")
		res <- err
	}()
	waitFor(t, "the query to wait on the ring", 10*time.Second, func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		for key := range n.waiters {
			if key.b == stuck[0] {
				return true
			}
		}
		return false
	})
	if r.Quiesce(50 * time.Millisecond) {
		t.Fatal("the ring quiesced while a query waited on it")
	}
	n.mu.Lock()
	for _, qe := range n.errs {
		qe.abort()
	}
	n.mu.Unlock()
	if !r.Quiesce(10 * time.Second) {
		t.Fatal("the ring did not quiesce once the waiting query was cancelled")
	}
	if err := <-res; !errors.Is(err, mal.ErrCancelled) {
		t.Fatalf("the cancelled query returned %v, want %v", err, mal.ErrCancelled)
	}
	checkNothingHeld(t, n)
}
