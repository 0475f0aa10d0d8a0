package live

import (
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/bat"
	"repro/internal/core"
)

// wireCacheRing builds a three-node ring with no hot cache and aggressive
// eviction: every pin waits for circulation, and fragments leave the hot
// set between queries and reload from their owners' stores.
func wireCacheRing(t *testing.T) *Ring {
	t.Helper()
	cols, schema := testColumns()
	cfg := DefaultConfig()
	cfg.CacheBytes = 0
	cfg.Core.LOITLevels = []float64{10}
	cfg.Core.AdaptiveLOIT = false
	r, err := NewRing(3, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sumOnReader returns a closure that runs "select sum(val) from c" on the
// node after the owner of c.val, so every answer crosses the ring.
func sumOnReader(t *testing.T, r *Ring, owner *Node) func() int64 {
	reader := r.node((int(owner.id) + 1) % r.Size())
	return func() int64 {
		rs, err := reader.ExecSQL("select sum(val) from c")
		if err != nil {
			t.Fatal(err)
		}
		return rs.Row(0)[0].(int64)
	}
}

// storedFragment returns the fragment the owner's store holds for id.
func storedFragment(owner *Node, id core.BATID) *fragment {
	owner.mu.Lock()
	defer owner.mu.Unlock()
	return owner.store[id]
}

// TestWireCacheReusesMarshalledBytes: a fragment version installed from a
// BAT is marshalled on its first send and never again — its wire bytes
// keep one backing array however often it circulates, unloads and
// reloads.
func TestWireCacheReusesMarshalledBytes(t *testing.T) {
	r := wireCacheRing(t)
	defer r.Close()
	ids, _ := r.Fragments("c.val")
	id := ids[0]
	owner := r.ownerOf(id)
	sum := sumOnReader(t, r, owner)

	f := storedFragment(owner, id)
	var first *byte
	for i := 0; i < 3; i++ {
		if got := sum(); got != 1000 {
			t.Fatalf("query %d: sum = %d, want 1000", i, got)
		}
		if storedFragment(owner, id) != f {
			t.Fatalf("query %d: the owner holds another fragment for an unchanged version", i)
		}
		owner.mu.Lock()
		sent := f.raw != nil // sends marshal under the owner's lock
		owner.mu.Unlock()
		if !sent {
			t.Fatalf("query %d: the owner never sent the fragment", i)
		}
		at := unsafe.SliceData(f.wire())
		if first == nil {
			first = at
		} else if at != first {
			t.Fatalf("query %d: the version was marshalled again", i)
		}
	}
}

// TestWireCacheInvalidatedOnUpdate: an update installs a new version with
// wire bytes of its own, and readers eventually see it — the old
// version's marshalled bytes are not served for the updated fragment.
func TestWireCacheInvalidatedOnUpdate(t *testing.T) {
	r := wireCacheRing(t)
	defer r.Close()
	ids, _ := r.Fragments("c.val")
	id := ids[0]
	owner := r.ownerOf(id)
	sum := sumOnReader(t, r, owner)

	if got := sum(); got != 1000 {
		t.Fatalf("base sum = %d, want 1000", got)
	}
	old := unsafe.SliceData(storedFragment(owner, id).wire())

	if _, err := r.UpdateColumn("c.val", func(*bat.BAT) *bat.BAT {
		return bat.MakeInts("c.val", []int64{1, 1, 1, 1})
	}); err != nil {
		t.Fatal(err)
	}
	// Each round blocks on a query, which is the clock; the deadline
	// only bounds a broken ring.
	deadline := time.Now().Add(5 * time.Second)
	for got := sum(); got != 4; got = sum() {
		if time.Now().After(deadline) {
			t.Fatalf("new version never served (sum = %d): stale wire bytes still circulating", got)
		}
	}
	nf := storedFragment(owner, id)
	if nf.ver != 1 || unsafe.SliceData(nf.wire()) == old {
		t.Fatalf("updated fragment at version %d shares the old version's bytes", nf.ver)
	}
	b, err := bat.UnmarshalView(nf.wire())
	if err != nil {
		t.Fatal(err)
	}
	if got := tailInts(b); !slices.Equal(got, []int64{1, 1, 1, 1}) {
		t.Fatalf("new version's wire bytes decode to %v", got)
	}
}
