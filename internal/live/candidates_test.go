package live

import (
	"sync"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/mal"
	"repro/internal/mal/maltest"
	"repro/internal/minisql"
	"repro/internal/tpch"
)

// q6ishReference is what mal.Run answers to Q6ish on db's unfragmented
// columns with l_quantity replaced by qty: the whole-version answer a
// ring serving that version must reproduce.
func q6ishReference(t *testing.T, db *tpch.DB, qty *bat.BAT) [][]any {
	t.Helper()
	plan, err := minisql.Compile(tpch.Q6ishSQL, db.Schema(), "sys")
	if err != nil {
		t.Fatal(err)
	}
	c := catalogOf{}
	for k, v := range db.ColumnMap() {
		c[k] = v
	}
	c["lineitem.l_quantity"] = qty
	v, err := mal.Run(&mal.Context{Registry: mal.NewRegistry(), Catalog: c}, plan)
	if err != nil {
		t.Fatal(err)
	}
	return v.(*mal.ResultSet).Rows()
}

// TestQ6ishCandidateListsAcrossFragments serves Q6ish from every node
// of a 3-node ring whose columns are cut into 257-row fragments, so the
// three per-fragment candidate lists are merged out of ~24 pieces each
// and their runs straddle fragment boundaries everywhere, while
// l_quantity flips between two versions underneath. Every answer must
// be exactly what mal.Run computes on the unfragmented columns of one
// of the two versions — never a blend, never a row lost at a seam.
func TestQ6ishCandidateListsAcrossFragments(t *testing.T) {
	db := tpch.GenDB(0.001, 18)
	cols := db.ColumnMap()
	cfg := DefaultConfig()
	cfg.FragmentRows = 257
	// A request that crosses an update's re-install can sit out the
	// resend timer (ROADMAP item 1); keep that stall short.
	cfg.Core.ResendTimeout = 100 * time.Millisecond
	r, err := NewRing(3, cols, db.Schema(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if ids, _ := r.Fragments("lineitem.l_quantity"); len(ids) < 20 {
		t.Fatalf("l_quantity has %d fragments; the seams are the point", len(ids))
	}

	// Version B shifts every quantity by one, moving rows across the
	// `l_quantity < 24` limit.
	qtyA := cols["lineitem.l_quantity"]
	shifted := make([]int64, qtyA.Len())
	for i := range shifted {
		shifted[i] = qtyA.Tail().Int(i) + 1
	}
	qtyB := bat.MakeInts("lineitem.l_quantity", shifted)

	refA, refB := q6ishReference(t, db, qtyA), q6ishReference(t, db, qtyB)
	if maltest.SameRows(refA, refB) {
		t.Fatal("the two versions answer alike; the test cannot tell them apart")
	}

	// One update per answered query, landing while the other readers'
	// queries are in flight: paced by progress, not by the clock, so a
	// slow (-race) run cannot outrun the pin path's snapshot retries.
	stop := make(chan struct{})
	answered := make(chan struct{}, 1)
	updaterDone := make(chan struct{})
	updates := 0
	go func() {
		defer close(updaterDone)
		for {
			select {
			case <-stop:
				return
			case <-answered:
			}
			_, err := r.UpdateColumn("lineitem.l_quantity", func(cur *bat.BAT) *bat.BAT {
				if cur.Tail().Int(0) == qtyA.Tail().Int(0) {
					return qtyB.Copy()
				}
				return qtyA.Copy()
			})
			if err != nil {
				t.Error(err)
				return
			}
			updates++
		}
	}()
	var readers sync.WaitGroup
	for n := 0; n < r.Size(); n++ {
		readers.Add(1)
		go func(n int) {
			defer readers.Done()
			for i := 0; i < 40; i++ {
				rs, err := r.Node(n).ExecSQL(tpch.Q6ishSQL)
				if err != nil {
					t.Errorf("node %d: %v", n, err)
					return
				}
				if got := rs.Rows(); !maltest.SameRows(refA, got) && !maltest.SameRows(refB, got) {
					t.Errorf("node %d query %d: %v is neither version's answer (%v, %v)", n, i, got, refA, refB)
					return
				}
				select {
				case answered <- struct{}{}:
				default:
				}
			}
		}(n)
	}
	readers.Wait()
	close(stop)
	<-updaterDone
	if updates < 2 {
		t.Fatalf("only %d updates landed; the race was never exercised", updates)
	}
}
