package live

import (
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/mal"
)

// TestWireCacheReusesMarshalledBytes runs the same query twice and
// checks that at least some data forwards reused the cached serialized
// form instead of paying bat.Marshal again.
func TestWireCacheReusesMarshalledBytes(t *testing.T) {
	r := newTestRing(t, 3)
	defer r.Close()
	q := "select c.t_id from t, c where c.t_id = t.id"
	for i := 0; i < 2; i++ {
		if _, err := r.Node(1).ExecSQL(q); err != nil {
			t.Fatal(err)
		}
	}
	var hits, misses int64
	for i := 0; i < r.Size(); i++ {
		h, m := r.Node(i).WireCacheStats()
		hits += h
		misses += m
	}
	if misses == 0 {
		t.Fatal("no data sends recorded")
	}
	if hits == 0 {
		t.Fatal("every forward re-marshalled its fragment; cache never hit")
	}
}

// TestWireCacheInvalidatedOnUpdate installs a new column version and
// checks readers eventually see it: stale cached bytes must not keep
// being served for the updated fragment.
func TestWireCacheInvalidatedOnUpdate(t *testing.T) {
	cols, schema := testColumns()
	cfg := DefaultConfig()
	// Aggressive eviction so re-fetches reload from the owner's store.
	cfg.Core.LOITLevels = []float64{10}
	cfg.Core.AdaptiveLOIT = false
	r, err := NewRing(3, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	sum := func() int64 {
		rs, err := r.Node(1).ExecSQL("select sum(val) from c")
		if err != nil {
			t.Fatal(err)
		}
		return rs.Row(0)[0].(int64)
	}
	if got := sum(); got != 1000 {
		t.Fatalf("base sum = %d, want 1000", got)
	}
	if _, err := r.UpdateColumn("c.val", func(old *bat.BAT) *bat.BAT {
		return bat.MakeInts("c.val", []int64{1, 1, 1, 1})
	}); err != nil {
		t.Fatal(err)
	}
	// Each round blocks on a query, which is the clock; the deadline
	// only bounds a broken ring.
	deadline := time.Now().Add(5 * time.Second)
	var got int64
	for time.Now().Before(deadline) {
		if got = sum(); got == 4 {
			return
		}
	}
	t.Fatalf("new version never visible (sum = %d): stale wire bytes still circulating", got)
}

// TestExecPlanErrorDoesNotLeakInterpreter drives the errCh failure path
// of ExecPlan: a plan pins both a real column and a phantom fragment no
// node owns, so the phantom request returns to origin and fails the
// query while the other pin may still be blocked. The interpreter
// goroutine must exit (via cancellation), not strand forever against a
// cancelled query.
func TestExecPlanErrorDoesNotLeakInterpreter(t *testing.T) {
	r := newTestRing(t, 3)
	defer r.Close()
	n := r.Node(0)

	r.idsMu.Lock()
	r.cols["ghost.col"] = &colFrags{ids: []core.BATID{777}}
	r.idsMu.Unlock()

	for i := 0; i < 5; i++ {
		b := mal.NewBuilder("leaky")
		g := b.Emit("datacyclotron", "request", mal.L("sys"), mal.L("ghost"), mal.L("col"))
		h := b.Emit("datacyclotron", "request", mal.L("sys"), mal.L("t"), mal.L("id"))
		pg := b.Emit("datacyclotron", "pin", mal.V(g))
		ph := b.Emit("datacyclotron", "pin", mal.V(h))
		_ = pg
		b.SetResult(ph)
		if _, err := n.ExecPlan(b.MustBuild()); err == nil {
			t.Fatal("query over phantom fragment succeeded")
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if n.InterpRunning() == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := n.InterpRunning(); got != 0 {
		t.Fatalf("%d interpreter goroutines still running after failed queries", got)
	}
	// The aborted pins must not leave refcounted payloads behind.
	n.mu.Lock()
	leftover := len(n.cached)
	n.mu.Unlock()
	if leftover != 0 {
		t.Fatalf("%d cached payloads leaked by aborted queries", leftover)
	}
}
