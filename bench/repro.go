package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bat"
	"repro/internal/live"
	"repro/internal/mal"
	"repro/internal/tpch"
)

// Reproductions of the defects found while sizing the workloads
// (README.md, "Known issues found while sizing"). They are not part of
// any measurement. Each prints what it saw and reports whether the
// defect showed; a reproduction that wedges is abandoned, not joined —
// the process exits under it.
var repros = map[string]func() bool{
	"update_wedge":    reproUpdateWedge,
	"cache0_resends":  reproCache0Resends,
	"lost_completion": reproLostCompletion,
}

func reproNames() []string {
	var names []string
	for n := range repros {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func reproRing(rows, cacheBytes int) (*live.Ring, error) {
	db := tpch.GenDB(tpch.SFForLineitemRows(rows), 1)
	cfg := live.DefaultConfig()
	cfg.Transport = live.TCP
	cfg.CacheBytes = cacheBytes
	return live.NewRing(ringNodes, db.ColumnMap(), db.Schema(), cfg)
}

// within runs fn and reports whether it returned before the deadline.
func within(d time.Duration, fn func() error) (bool, error) {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return true, err
	case <-time.After(d):
		return false, nil
	}
}

// reproUpdateWedge: once a query has made a multi-fragment column hot,
// Ring.UpdateColumn on it makes the next ExecSQL that reads the column
// block forever in queryDC.ringPin.
func reproUpdateWedge() bool {
	ring, err := reproRing(1<<18, 64<<20)
	if err != nil {
		fmt.Println("new ring:", err)
		return false
	}
	node := ring.Node(0)
	for i := 0; i < 2; i++ {
		if _, err := node.ExecSQL(tpch.Q6ishSQL); err != nil {
			fmt.Println("query before the update:", err)
			return false
		}
	}
	ver, err := ring.UpdateColumn("lineitem.l_quantity", func(b *bat.BAT) *bat.BAT { return b.Copy() })
	if err != nil {
		fmt.Println("update:", err)
		return false
	}
	fmt.Printf("lineitem.l_quantity is now version %d; querying it again\n", ver)
	returned, err := within(queryTimeout, func() error { _, err := node.ExecSQL(tpch.Q6ishSQL); return err })
	if returned {
		fmt.Println("the query after the update returned:", err)
		return false
	}
	fmt.Printf("WEDGED: the query after the update has not returned in %v\n", queryTimeout)
	return true
}

// reproCache0Resends: with the hot-set cache off and only two readers,
// a share of the queries sits out the 2 s core.Config.ResendTimeout.
func reproCache0Resends() bool {
	ring, err := reproRing(bigRows, 0)
	if err != nil {
		fmt.Println("new ring:", err)
		return false
	}
	t := closedLoop(sessions, forSeconds(30), op{call: func(s, _ int) (*mal.ResultSet, error) {
		return ring.Node(s).ExecSQL(tpch.Q6ishSQL)
	}})
	slow := 0
	for _, ms := range t.latMs {
		if ms >= 2000 {
			slow++
		}
	}
	var resends uint64
	for i := 0; i < ring.Size(); i++ {
		resends += ring.Node(i).Stats().Resends
	}
	fmt.Printf("%d queries, %d failed, %d took 2 s or longer, %d resends\n", len(t.latMs), t.failed(), slow, resends)
	return slow > 0
}

// reproLostCompletion: rdma.Messenger.post enqueues the send's ticket
// after posting the send, and finish drops a completion that finds no
// ticket; when the wire wins that race the sender waits forever.
func reproLostCompletion() bool {
	for round := 1; round <= 2000; round++ {
		a, b, err := loopbackPair()
		if err != nil {
			fmt.Println("messenger pair:", err)
			return false
		}
		go func() {
			for {
				if _, err := b.Recv(); err != nil {
					return
				}
			}
		}()
		returned, err := within(wireDeadline, func() error {
			for i := 0; i < 200; i++ {
				if err := a.Send([]byte{1}); err != nil {
					return err
				}
			}
			return nil
		})
		a.Close()
		b.Close()
		if !returned {
			fmt.Printf("WEDGED: a Send in round %d (200 one-byte sends each) never completed\n", round)
			return true
		}
		if err != nil {
			fmt.Println("send:", err)
			return false
		}
	}
	fmt.Println("2000 rounds of 200 sends all completed")
	return false
}
