package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bat"
)

// TestUpdateHotFragmentedColumnThenQuery is the regression test for the
// update wedge: a hot multi-fragment column whose fragments sit parked
// at their owners (the state a fully cached column settles into) is
// updated, and the next query must come back with the new version. The
// update used to rebuild the owner's S1 entry without its parked state,
// so the books said "circulating" for an envelope held at the owner and
// every later request was absorbed.
func TestUpdateHotFragmentedColumnThenQuery(t *testing.T) {
	for _, tr := range []struct {
		name      string
		transport Transport
	}{{"inproc", InProc}, {"tcp", TCP}} {
		t.Run(tr.name, func(t *testing.T) {
			const rows = 1024
			cols, schema := fragColumns(rows)
			cfg := DefaultConfig() // cache on, batched hops: idle fragments park
			cfg.Transport = tr.transport
			cfg.FragmentRows = rows / 4
			r, err := NewRing(3, cols, schema, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			const sql = "select sum(v), count(*) from big"
			sumOf := func() int64 {
				t.Helper()
				done := make(chan int64, 1)
				go func() {
					rs, err := r.Node(0).ExecSQL(sql)
					if err != nil {
						t.Error(err)
						done <- -1
						return
					}
					done <- rs.Row(0)[0].(int64)
				}()
				select {
				case sum := <-done:
					return sum
				case <-time.After(5 * time.Second):
					t.Fatal("query did not return within 5s")
					return 0
				}
			}
			want := sumOf()
			if again := sumOf(); again != want {
				t.Fatalf("repeat query: sum %d, want %d", again, want)
			}
			// Let the column go quiet: every fragment node 0 pulled
			// through the ring ends up parked at its owner.
			ids, _ := r.Fragments("big.v")
			waitFor(t, "remote fragments of big.v to park", 5*time.Second, func() bool {
				for _, id := range ids {
					owner := r.ownerOf(id)
					owner.mu.Lock()
					circulating := owner.rt.Loaded(id) && !owner.rt.Parked(id)
					owner.mu.Unlock()
					if circulating {
						return false
					}
				}
				return true
			})

			ver, err := r.UpdateColumn("big.v", func(old *bat.BAT) *bat.BAT {
				vals := make([]int64, old.Len())
				for i := range vals {
					vals[i] = old.Tail().Int(i) * 2
				}
				return bat.MakeInts("big.v", vals)
			})
			if err != nil || ver != 1 {
				t.Fatalf("update: version %d, err %v", ver, err)
			}
			if got := sumOf(); got != 2*want {
				t.Fatalf("query after the update: sum %d, want %d", got, 2*want)
			}
		})
	}
}

const (
	moveCol   = "p.val"
	moveRows  = 2048
	moveFrags = 8
)

// newMoveRing builds the ring TestInstallMoveInvariants runs on: one
// column split into moveFrags fragments whose every row holds the
// column's version number, one replica each, fast detection and
// resends.
func newMoveRing(t *testing.T, nodes int) *Ring {
	t.Helper()
	cfg := DefaultConfig()
	cfg.FragmentRows = moveRows / moveFrags
	cfg.Replicas = 1
	cfg.Heartbeat = fastHeartbeat()
	cfg.Core.ResendTimeout = 100 * time.Millisecond
	cols := map[string]*bat.BAT{moveCol: bat.MakeInts(moveCol, make([]int64, moveRows))}
	r, err := NewRing(nodes, cols, fragSchema(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkMoveInvariants asserts the install/move invariants of move.go
// on the column, under its column lock (so it sees the state between
// two steps of whatever operation is running, never the inside of
// one). While an operation is in flight a fragment may be between
// owners — dead owner, promotion pending — so "exactly one live owner"
// is asserted only when final.
func checkMoveInvariants(r *Ring, final bool) error {
	lock := r.columnLock(moveCol)
	lock.Lock()
	defer lock.Unlock()
	ids, _ := r.Fragments(moveCol)
	if len(ids) != moveFrags {
		return fmt.Errorf("%d fragments in the catalog, want %d", len(ids), moveFrags)
	}
	for _, id := range ids {
		var owner *Node
		ownerVer := 0
		for _, n := range r.nodeList() {
			if r.isDead(n.id) {
				continue
			}
			n.mu.Lock()
			owns, ver, stored := n.rt.Owns(id), n.storeVer(id), n.store[id] != nil
			n.mu.Unlock()
			if !owns {
				continue
			}
			if owner != nil {
				return fmt.Errorf("fragment %d: live owners %d and %d", id, owner.id, n.id)
			}
			if !stored {
				return fmt.Errorf("fragment %d: owner %d holds no bytes", id, n.id)
			}
			owner, ownerVer = n, ver
		}
		cat := r.fragVersion(id)
		if owner == nil {
			if final {
				return fmt.Errorf("fragment %d: no live owner", id)
			}
		} else {
			if ownerVer != cat {
				return fmt.Errorf("fragment %d: owner %d at version %d, catalog at %d", id, owner.id, ownerVer, cat)
			}
			if named := r.ownerOf(id); named != owner {
				return fmt.Errorf("fragment %d: node %d owns it, the placement catalog names %v", id, owner.id, named)
			}
		}
		for _, rep := range r.replicaNodes(id) {
			rep.mu.Lock()
			rp := rep.replicas[id]
			rep.mu.Unlock()
			if rp == nil || rp.f.ver != cat {
				return fmt.Errorf("fragment %d: replica at node %d is %+v, catalog at version %d", id, rep.id, rp, cat)
			}
		}
	}
	return nil
}

// TestInstallMoveInvariants drives every caller of the install/move
// steps — update, failover promotion, join rebalancing — with
// concurrent readers and a concurrent updater, and checks the
// invariants move.go documents: during the operation (sampled between
// its steps) and after it, at most (finally: exactly) one live owner
// per fragment, the owner's bytes at the catalog version, every live
// replica at the catalog version, the fragment count conserved; and no
// reader ever saw a version below the catalog's at its pin time, nor a
// mix of versions.
func TestInstallMoveInvariants(t *testing.T) {
	cases := []struct {
		name  string
		nodes int
		op    func(r *Ring) error
	}{
		// The updater every case runs is the operation here.
		{"update", 3, func(*Ring) error { time.Sleep(300 * time.Millisecond); return nil }},
		{"kill+failover", 4, func(r *Ring) error {
			time.Sleep(100 * time.Millisecond) // detectors need evidence first
			const victim = 3                   // readers sit on nodes 0 and 1
			r.KillNode(victim)
			deadline := time.Now().Add(10 * time.Second)
			for r.Alive(victim) || r.UnownedFragments() > 0 {
				if time.Now().After(deadline) {
					return fmt.Errorf("failover incomplete: alive=%v unowned=%d", r.Alive(victim), r.UnownedFragments())
				}
				time.Sleep(2 * time.Millisecond)
			}
			if s := r.MembershipStats(); s.LostFrags != 0 || s.Promotions == 0 {
				return fmt.Errorf("failover stats %+v", s)
			}
			return nil
		}},
		{"join rebalance", 3, func(r *Ring) error {
			rep, err := r.Join()
			if err == nil && rep.Migrated == 0 {
				err = fmt.Errorf("join migrated nothing: %+v", rep)
			}
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newMoveRing(t, tc.nodes)
			defer r.Close()
			if err := checkMoveInvariants(r, true); err != nil {
				t.Fatalf("before: %v", err)
			}

			var (
				committed int64
				reads     int64
				failed    atomic.Value
				wg        sync.WaitGroup
			)
			fail := func(format string, args ...any) {
				failed.CompareAndSwap(nil, fmt.Sprintf(format, args...))
			}
			stop := make(chan struct{})
			stopped := func() bool {
				select {
				case <-stop:
					return true
				default:
					return failed.Load() != nil
				}
			}
			// Updater: version g is a column of g's.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stopped() {
					ver, err := r.UpdateColumn(moveCol, func(cur *bat.BAT) *bat.BAT {
						vals := make([]int64, moveRows)
						for i := range vals {
							vals[i] = cur.Tail().Int(0) + 1
						}
						return bat.MakeInts(moveCol, vals)
					})
					if err != nil {
						fail("update: %v", err)
						return
					}
					atomic.StoreInt64(&committed, int64(ver))
					time.Sleep(2 * time.Millisecond)
				}
			}()
			// Readers: whole versions only, never older than what was
			// committed before the read began.
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for !stopped() {
						pre := atomic.LoadInt64(&committed)
						b, err := r.Node(w % 2).Fetch(moveCol)
						if err != nil {
							fail("reader %d: %v", w, err)
							return
						}
						got := b.Tail().Int(0)
						for i := 0; i < b.Len(); i++ {
							if b.Tail().Int(i) != got {
								fail("reader %d: versions %d and %d in one merge", w, got, b.Tail().Int(i))
								return
							}
						}
						if b.Len() != moveRows || got < pre {
							fail("reader %d: %d rows of version %d, want %d rows of version >= %d", w, b.Len(), got, moveRows, pre)
							return
						}
						atomic.AddInt64(&reads, 1)
					}
				}(w)
			}
			// Sampler: the invariants between the operation's steps.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stopped() {
					if err := checkMoveInvariants(r, false); err != nil {
						fail("during: %v", err)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}()

			opErr := make(chan error, 1)
			go func() { opErr <- tc.op(r) }()
			select {
			case err := <-opErr:
				if err != nil {
					fail("operation: %v", err)
				}
			case <-time.After(30 * time.Second):
				fail("operation did not finish in 30s")
			}
			// Keep reading across the settled state for a moment.
			time.Sleep(50 * time.Millisecond)
			close(stop)
			wg.Wait()
			if msg := failed.Load(); msg != nil {
				t.Fatal(msg)
			}
			if err := checkMoveInvariants(r, true); err != nil {
				t.Fatalf("after: %v", err)
			}
			if atomic.LoadInt64(&reads) == 0 || atomic.LoadInt64(&committed) == 0 {
				t.Fatalf("%d reads, %d updates: the property was not exercised", reads, committed)
			}
		})
	}
}
