package live

import (
	"sync"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
)

func TestPublishAndFetchIntermediate(t *testing.T) {
	r := newTestRing(t, 3)
	defer r.Close()
	// Node 0 computes an intermediate and throws it into the ring.
	inter := bat.MakeInts("revenue-by-day", []int64{10, 20, 30})
	id, err := r.Node(0).Publish("cache.revenue", inter)
	if err != nil {
		t.Fatal(err)
	}
	if id < firstDynamicID {
		t.Fatalf("dynamic id %d below range", id)
	}
	// A different node fetches it by name through the ring.
	got, err := r.Node(2).Fetch("cache.revenue")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || got.Tail().Int(2) != 30 {
		t.Fatalf("fetched intermediate wrong: %s", got.Dump(5))
	}
	// Double publish under the same name is rejected.
	if _, err := r.Node(1).Publish("cache.revenue", inter); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestPublishTooLargeRejected(t *testing.T) {
	r := newTestRing(t, 2)
	defer r.Close()
	huge := bat.MakeInts("huge", make([]int64, 1<<20))
	if _, err := r.Node(0).Publish("cache.huge", huge); err == nil {
		t.Fatal("expected size-limit error")
	}
}

func TestFetchUnknown(t *testing.T) {
	r := newTestRing(t, 2)
	defer r.Close()
	if _, err := r.Node(0).Fetch("no.such"); err == nil {
		t.Fatal("expected error")
	}
}

func TestUpdateColumnVersions(t *testing.T) {
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

	if v, _ := r.Version("c.val"); v != 0 {
		t.Fatalf("base version = %d", v)
	}
	// Reader pins the old version.
	oldRes, err := r.Node(1).ExecSQL("select sum(val) from c")
	if err != nil {
		t.Fatal(err)
	}
	oldSum := oldRes.Row(0)[0].(int64) // 100+200+300+400

	v, err := r.UpdateColumn("c.val", func(old *bat.BAT) *bat.BAT {
		vals := make([]int64, old.Len())
		for i := range vals {
			vals[i] = old.Tail().Int(i) * 2
		}
		return bat.MakeInts("c.val", vals)
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("version = %d, want 1", v)
	}
	// Allow the old flowing copy to cool down and be evicted.
	deadline := time.Now().Add(5 * time.Second)
	var newSum int64
	for time.Now().Before(deadline) {
		res, err := r.Node(1).ExecSQL("select sum(val) from c")
		if err != nil {
			t.Fatal(err)
		}
		newSum = res.Row(0)[0].(int64)
		if newSum == oldSum*2 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if newSum != oldSum*2 {
		t.Fatalf("new version not visible: sum = %d, want %d", newSum, oldSum*2)
	}
}

func TestConcurrentUpdatesSerialize(t *testing.T) {
	r := newTestRing(t, 2)
	defer r.Close()
	const k = 8
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := r.UpdateColumn("t.id", func(old *bat.BAT) *bat.BAT {
				vals := make([]int64, old.Len())
				for j := range vals {
					vals[j] = old.Tail().Int(j) + 1
				}
				return bat.MakeInts("t.id", vals)
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if v, _ := r.Version("t.id"); v != k {
		t.Fatalf("version = %d, want %d (lost update?)", v, k)
	}
	// All k increments applied: id[0] went 1 -> 1+k.
	got, err := r.Node(1).Fetch("t.id")
	if err != nil {
		t.Fatal(err)
	}
	// The fetched copy may be a stale flowing version; verify at owner.
	ids, _ := r.Fragments("t.id")
	ringID := ids[0]
	owner := r.ownerOf(ringID)
	owner.mu.Lock()
	latest := owner.tab.owned(ringID).b
	owner.mu.Unlock()
	if latest.Tail().Int(0) != 1+k {
		t.Fatalf("owner value = %d, want %d", latest.Tail().Int(0), 1+k)
	}
	_ = got
}

func TestUpdateUnknownColumn(t *testing.T) {
	r := newTestRing(t, 2)
	defer r.Close()
	if _, err := r.UpdateColumn("no.such", func(b *bat.BAT) *bat.BAT { return b }); err == nil {
		t.Fatal("expected error")
	}
}

func TestNomadicSubmit(t *testing.T) {
	r := newTestRing(t, 3)
	defer r.Close()
	rs, err := r.Submit("select c.t_id from t, c where c.t_id = t.id")
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumRows() != 3 {
		t.Fatalf("rows = %d", rs.NumRows())
	}
}

func TestDynamicIDsDoNotCollideWithCatalog(t *testing.T) {
	r := newTestRing(t, 2)
	defer r.Close()
	if ids, ok := r.Fragments("t.id"); !ok || ids[0] >= firstDynamicID {
		t.Fatalf("catalog ids = %v", ids)
	}
	pid, err := r.Node(0).Publish("x.y", bat.MakeInts("x", []int64{1}))
	if err != nil {
		t.Fatal(err)
	}
	var unused core.BATID = pid
	_ = unused
	if pid <= firstDynamicID {
		t.Fatalf("published id = %d", pid)
	}
}
