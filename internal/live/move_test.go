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

// moveRig is what TestInstallMoveInvariants needs of a runtime, a
// single ring or a routed pair alike: one fragmented column whose every
// row holds the column's version number.
type moveRig struct {
	rings  []*Ring
	fetch  func(reader int) (*bat.BAT, error)
	update func(fn func(*bat.BAT) *bat.BAT) (int, error)
	close  func()
}

const (
	moveCol   = "p.val"
	moveRows  = 2048
	moveFrags = 8
)

func moveColumn() map[string]*bat.BAT {
	return map[string]*bat.BAT{moveCol: bat.MakeInts(moveCol, make([]int64, moveRows))}
}

// moveTune shapes a ring config for the test: the column splits into
// moveFrags fragments, one replica each, fast detection and resends.
func moveTune(cfg *Config) {
	cfg.FragmentRows = moveRows / moveFrags
	cfg.Replicas = 1
	cfg.Heartbeat = fastHeartbeat()
	cfg.Core.ResendTimeout = 100 * time.Millisecond
}

func newMoveRing(t *testing.T, nodes int) *moveRig {
	t.Helper()
	cfg := DefaultConfig()
	moveTune(&cfg)
	r, err := NewRing(nodes, moveColumn(), fragSchema(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &moveRig{
		rings:  []*Ring{r},
		fetch:  func(reader int) (*bat.BAT, error) { return r.Node(reader % 2).Fetch(moveCol) },
		update: func(fn func(*bat.BAT) *bat.BAT) (int, error) { return r.UpdateColumn(moveCol, fn) },
		close:  r.Close,
	}
}

// newMoveRouter builds a two-tier runtime whose scanner and flash path
// never fire: every migration in the test is a forced one.
func newMoveRouter(t *testing.T) (*moveRig, *Router) {
	t.Helper()
	rc := DefaultRouterConfig()
	rc.HotNodes, rc.ColdNodes = 2, 3
	rc.TierScan = time.Hour
	rc.FlashCrowdHits = -1
	moveTune(&rc.Hot)
	moveTune(&rc.Cold)
	rtr, err := NewRouter(moveColumn(), fragSchema(), rc)
	if err != nil {
		t.Fatal(err)
	}
	return &moveRig{
		rings:  []*Ring{rtr.Tier(HotRing), rtr.Tier(ColdRing)},
		fetch:  func(int) (*bat.BAT, error) { return rtr.Fetch(moveCol) },
		update: func(fn func(*bat.BAT) *bat.BAT) (int, error) { return rtr.UpdateColumn(moveCol, fn) },
		close:  rtr.Close,
	}, rtr
}

// migrateAll forces every fragment of the column from one tier to the
// other and returns how many moved.
func migrateAll(rtr *Router, from, to RingID) int {
	ids, _ := rtr.Tier(from).Fragments(moveCol)
	moved := 0
	for _, id := range ids {
		if rtr.markMigrating(id) {
			if rtr.migrateTier(id, from, to) {
				moved++
			}
			rtr.unmarkMigrating(id)
		}
	}
	return moved
}

// check asserts the install/move invariants of move.go on the column,
// under its column lock (so it sees the state between two steps of
// whatever operation is running, never the inside of one). While an
// operation is in flight a fragment may be between owners — dead owner,
// promotion pending — so "exactly one live owner" is asserted only when
// final.
func (m *moveRig) check(final bool) error {
	r0 := m.rings[0]
	lock := r0.columnLock(moveCol)
	lock.Lock()
	defer lock.Unlock()
	ids, _ := r0.Fragments(moveCol)
	if len(ids) != moveFrags {
		return fmt.Errorf("%d fragments in the catalog, want %d", len(ids), moveFrags)
	}
	for _, id := range ids {
		home := r0.homeRing(id)
		for _, rg := range m.rings {
			var owner *Node
			ownerVer := 0
			for _, n := range rg.nodeList() {
				if rg.isDead(n.id) {
					continue
				}
				n.mu.Lock()
				owns, ver, stored := n.rt.Owns(id), n.versions[id], n.store[id] != nil
				n.mu.Unlock()
				if !owns {
					continue
				}
				if owner != nil {
					return fmt.Errorf("fragment %d: live owners %d and %d on the %v ring", id, owner.id, n.id, rg.id)
				}
				if !stored {
					return fmt.Errorf("fragment %d: owner %d on the %v ring holds no bytes", id, n.id, rg.id)
				}
				owner, ownerVer = n, ver
			}
			if rg != home {
				continue // at most one residual copy, checked above
			}
			cat := rg.fragVersion(id)
			if owner == nil {
				if final {
					return fmt.Errorf("fragment %d: no live owner on its home ring (%v)", id, rg.id)
				}
			} else {
				if ownerVer != cat {
					return fmt.Errorf("fragment %d: owner %d at version %d, catalog at %d", id, owner.id, ownerVer, cat)
				}
				if named := rg.ownerOf(id); named != owner {
					return fmt.Errorf("fragment %d: node %d owns it, the placement catalog names %v", id, owner.id, named)
				}
			}
			for _, rep := range rg.replicaNodes(id) {
				rep.mu.Lock()
				rp := rep.replicas[id]
				rep.mu.Unlock()
				if rp == nil || rp.ver != cat {
					return fmt.Errorf("fragment %d: replica at node %d is %+v, catalog at version %d", id, rep.id, rp, cat)
				}
			}
		}
	}
	return nil
}

// TestInstallMoveInvariants drives every caller of the install/move
// steps — update, failover promotion, join rebalancing, tier promotion
// and demotion — with concurrent readers and a concurrent updater, and
// checks the invariants move.go documents: during the operation
// (sampled between its steps) and after it, at most (finally: exactly)
// one live owner per fragment per ring, the owner's bytes at the
// catalog version, every live replica at the catalog version, the
// fragment count conserved; and no reader ever saw a version below the
// catalog's at its pin time, nor a mix of versions.
func TestInstallMoveInvariants(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) (rig *moveRig, op func() error)
	}{
		{"update", func(t *testing.T) (*moveRig, func() error) {
			rig := newMoveRing(t, 3)
			// The updater every case runs is the operation here.
			return rig, func() error { time.Sleep(300 * time.Millisecond); return nil }
		}},
		{"kill+failover", func(t *testing.T) (*moveRig, func() error) {
			rig := newMoveRing(t, 4)
			r := rig.rings[0]
			return rig, func() error {
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
			}
		}},
		{"join rebalance", func(t *testing.T) (*moveRig, func() error) {
			rig := newMoveRing(t, 3)
			return rig, func() error {
				rep, err := rig.rings[0].Join()
				if err == nil && rep.Migrated == 0 {
					err = fmt.Errorf("join migrated nothing: %+v", rep)
				}
				return err
			}
		}},
		{"tier promote", func(t *testing.T) (*moveRig, func() error) {
			rig, rtr := newMoveRouter(t)
			return rig, func() error {
				if moved := migrateAll(rtr, ColdRing, HotRing); moved == 0 {
					return fmt.Errorf("no fragment promoted")
				}
				return nil
			}
		}},
		{"tier demote", func(t *testing.T) (*moveRig, func() error) {
			rig, rtr := newMoveRouter(t)
			if moved := migrateAll(rtr, ColdRing, HotRing); moved != moveFrags {
				t.Fatalf("setup promoted %d of %d fragments", moved, moveFrags)
			}
			return rig, func() error {
				if moved := migrateAll(rtr, HotRing, ColdRing); moved == 0 {
					return fmt.Errorf("no fragment demoted")
				}
				return nil
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rig, op := tc.run(t)
			defer rig.close()
			if err := rig.check(true); err != nil {
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
					ver, err := rig.update(func(cur *bat.BAT) *bat.BAT {
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
						b, err := rig.fetch(w)
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
					if err := rig.check(false); err != nil {
						fail("during: %v", err)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}()

			opErr := make(chan error, 1)
			go func() { opErr <- op() }()
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
			if err := rig.check(true); err != nil {
				t.Fatalf("after: %v", err)
			}
			if atomic.LoadInt64(&reads) == 0 || atomic.LoadInt64(&committed) == 0 {
				t.Fatalf("%d reads, %d updates: the property was not exercised", reads, committed)
			}
		})
	}
}
