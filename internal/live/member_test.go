package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/membership"
)

// fastHeartbeat is the detector tuning the failover tests run with:
// verdicts inside ~60ms so kill-and-recover fits a unit test.
func fastHeartbeat() membership.Config {
	return membership.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      2,
		DeadAfter:         5,
	}
}

func newReplicaRing(t *testing.T, n, replicas int) *Ring {
	t.Helper()
	cols, schema := testColumns()
	cfg := DefaultConfig()
	cfg.Replicas = replicas
	cfg.Heartbeat = fastHeartbeat()
	cfg.Core.ResendTimeout = 100 * time.Millisecond
	r, err := NewRing(n, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func waitFor(t *testing.T, what string, deadline time.Duration, cond func() bool) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestReplicasZeroKeepsMembershipOff(t *testing.T) {
	r := newTestRing(t, 3) // DefaultConfig: Replicas 0
	defer r.Close()
	for i := 0; i < r.Size(); i++ {
		n := r.Node(i)
		if n.memb != nil || n.replicas != nil {
			t.Fatalf("node %d grew membership state with Replicas=0", i)
		}
		if s := n.MembershipStats(); s.Enabled {
			t.Fatalf("node %d MembershipStats enabled with Replicas=0", i)
		}
	}
	if s := r.MembershipStats(); s.Enabled || s.BeatsSent != 0 {
		t.Fatalf("ring membership stats with Replicas=0: %+v", s)
	}
	// The single-owner data path still works, beat-free.
	if _, err := r.Node(1).ExecSQL("select val from c where t_id >= 2"); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaPlacementOnSuccessors(t *testing.T) {
	r := newReplicaRing(t, 3, 1)
	defer r.Close()
	r.memMu.RLock()
	owners := make(map[core.BATID]core.NodeID, len(r.fragOwner))
	for id, owner := range r.fragOwner {
		owners[id] = owner
	}
	chains := make(map[core.BATID][]core.NodeID, len(r.fragReplicas))
	for id, chain := range r.fragReplicas {
		chains[id] = append([]core.NodeID(nil), chain...)
	}
	r.memMu.RUnlock()
	if len(owners) == 0 {
		t.Fatal("no fragments placed")
	}
	for id, owner := range owners {
		chain := chains[id]
		if len(chain) != 1 {
			t.Fatalf("fragment %d: replica chain %v, want 1 successor", id, chain)
		}
		want := core.NodeID((int(owner) + 1) % r.Size())
		if chain[0] != want {
			t.Fatalf("fragment %d owned by %d: replica at %d, want successor %d",
				id, owner, chain[0], want)
		}
		rep := r.node(int(chain[0]))
		rep.mu.Lock()
		rp := rep.replicas[id]
		rep.mu.Unlock()
		if rp == nil {
			t.Fatalf("fragment %d: successor %d holds no replica payload", id, chain[0])
		}
	}
	if s := r.MembershipStats(); !s.Enabled || s.Replicas != int64(len(owners)) {
		t.Fatalf("ring stats %+v, want %d replicas", s, len(owners))
	}
}

func TestHeartbeatsFlow(t *testing.T) {
	r := newReplicaRing(t, 3, 1)
	defer r.Close()
	waitFor(t, "heartbeats on every node", 2*time.Second, func() bool {
		for _, n := range r.nodeList() {
			if atomic.LoadInt64(&n.beatsSent) == 0 || atomic.LoadInt64(&n.beatsRecv) == 0 {
				return false
			}
		}
		return true
	})
	if s := r.MembershipStats(); s.Dead != 0 || s.Suspect != 0 {
		t.Fatalf("healthy ring reports %+v", s)
	}
}

func TestKillPromotesReplicasAndServesQueries(t *testing.T) {
	r := newReplicaRing(t, 3, 1)
	defer r.Close()

	// Warm the ring, then a silent crash of node 1 (owner of some of
	// every table's fragments under round-robin placement).
	if _, err := r.Node(0).ExecSQL("select val from c where t_id >= 2"); err != nil {
		t.Fatal(err)
	}
	r.KillNode(1)

	waitFor(t, "death detection + failover", 15*time.Second, func() bool {
		return r.isDead(1)
	})
	waitFor(t, "all fragments re-owned", 15*time.Second, func() bool {
		return r.UnownedFragments() == 0
	})

	s := r.MembershipStats()
	if s.Dead != 1 || s.ViewVersion == 0 {
		t.Fatalf("post-failover stats %+v, want 1 dead and an advanced view", s)
	}
	if s.Promotions == 0 {
		t.Fatalf("no promotions recorded: %+v", s)
	}
	if s.LostFrags != 0 {
		t.Fatalf("%d fragments lost with a surviving replica budget", s.LostFrags)
	}

	// Every survivor answers correctly, including queries whose data was
	// owned by the dead node.
	for _, i := range []int{0, 2} {
		rs, err := r.Node(i).ExecSQL("select val from c where t_id >= 2")
		if err != nil {
			t.Fatalf("node %d post-failover: %v", i, err)
		}
		if rs.NumRows() != 4 {
			t.Fatalf("node %d post-failover: %d rows, want 4", i, rs.NumRows())
		}
	}
}

func TestTwoNodeRingSurvivesToOne(t *testing.T) {
	r := newReplicaRing(t, 2, 1)
	defer r.Close()
	r.KillNode(1)
	waitFor(t, "failover to the last survivor", 15*time.Second, func() bool {
		return r.isDead(1) && r.UnownedFragments() == 0
	})
	rs, err := r.Node(0).ExecSQL("select val from c where t_id >= 2")
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumRows() != 4 {
		t.Fatalf("last survivor: %d rows, want 4", rs.NumRows())
	}
	// The last survivor can never be declared dead.
	r.failover(0)
	if r.isDead(0) {
		t.Fatal("last survivor declared dead")
	}
}

// TestPromotedReplicaNeverStale is the staleness property test extended
// to promoted replicas: updates race the death of the column's owner,
// and the promotion must never resurrect a superseded payload. The
// column's payload encodes its own version (update v sets every value
// to 1000+v, base data being 1000), so the checks are direct:
//
//   - while updates and the kill race, every fetch must be internally
//     consistent — one uniform version, never a torn mix (circulating
//     serves may lag the catalog; that is ordinary MVCC);
//   - once the replica has been promoted, the heir is the owner of
//     record, and its fetches carry the store/cache contract: never a
//     version older than the catalog read before the fetch began;
//   - when the dust settles, everyone converges on the highest
//     installed version — no stale orbit copy survives.
func TestPromotedReplicaNeverStale(t *testing.T) {
	cols, schema := testColumns()
	// Uniform payload so value 1000+v <-> version v from the start.
	// Sorted placement puts c.val on node 1 — the victim.
	cols["c.val"] = bat.MakeInts("c.val", []int64{1000, 1000, 1000, 1000})
	cfg := DefaultConfig()
	cfg.Replicas = 1
	// Roomier death budget than fastHeartbeat: beats share the data
	// links with the update/fetch traffic, and a saturated link must
	// show up as Suspect jitter, not as a false-positive death cascade.
	cfg.Heartbeat = membership.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      3,
		DeadAfter:         15,
	}
	cfg.Core.ResendTimeout = 100 * time.Millisecond
	r, err := NewRing(3, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const base = int64(1000)
	versionOf := func(b *bat.BAT) (int64, bool) {
		first := b.Tail().Int(0)
		for i := 1; i < b.Len(); i++ {
			if b.Tail().Int(i) != first {
				return 0, false
			}
		}
		return first - base, true
	}

	var (
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		highest int64 // highest version an updater has installed
	)
	// Updater: keep bumping c.val through the owner's death and the
	// promotion. Throttled just enough that heartbeats keep a fair
	// share of the shared links.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v, err := r.UpdateColumn("c.val", func(cur *bat.BAT) *bat.BAT {
				vals := make([]int64, cur.Len())
				next := cur.Tail().Int(0) + 1
				for i := range vals {
					vals[i] = next
				}
				return bat.MakeInts("c.val", vals)
			})
			if err != nil {
				t.Errorf("update: %v", err)
				return
			}
			for {
				old := atomic.LoadInt64(&highest)
				if int64(v) <= old || atomic.CompareAndSwapInt64(&highest, old, int64(v)) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	// Readers on both surviving nodes: every fetch must be one
	// consistent version, never a torn payload.
	for _, node := range []int{0, 2} {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			n := r.Node(idx)
			for {
				select {
				case <-stop:
					return
				default:
				}
				b, err := n.Fetch("c.val")
				if err != nil {
					// A fetch interrupted by the kill window may fail;
					// correctness demands no *torn* answer, not no error.
					continue
				}
				if _, ok := versionOf(b); !ok || b.Len() != 4 {
					t.Errorf("node %d fetched torn payload %v", idx, b.Dump(4))
					return
				}
			}
		}(node)
	}

	// Let the race warm up, then murder node 1 — c.val's owner —
	// mid-stream.
	time.Sleep(30 * time.Millisecond)
	r.KillNode(1)
	waitFor(t, "failover during concurrent updates", 30*time.Second, func() bool {
		return r.isDead(1) && r.UnownedFragments() == 0
	})

	// The replica at node 2 is now the owner of record. With updates
	// still racing, the heir must honor the promoted-staleness
	// contract: a fetch never observes a version older than the
	// catalog said before the fetch began.
	heir := r.Node(2)
	for until := time.Now().Add(150 * time.Millisecond); time.Now().Before(until); {
		floor, err := r.Version("c.val")
		if err != nil {
			t.Fatal(err)
		}
		b, err := heir.Fetch("c.val")
		if err != nil {
			continue
		}
		got, ok := versionOf(b)
		if !ok {
			t.Fatalf("heir fetched torn payload %v", b.Dump(4))
		}
		if got < int64(floor) {
			t.Fatalf("heir fetched version %d, catalog said ≥%d", got, floor)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Settled state: the catalog version matches the highest installed
	// update, exactly one death was declared (no false-positive
	// cascade), nothing was lost, and both survivors converge on the
	// final version once the last orbit copies die out.
	v, err := r.Version("c.val")
	if err != nil {
		t.Fatal(err)
	}
	if int64(v) != atomic.LoadInt64(&highest) {
		t.Fatalf("catalog version %d, highest installed %d", v, highest)
	}
	s := r.MembershipStats()
	if s.Dead != 1 {
		t.Fatalf("settled death count %d, want exactly the murdered node (stats %+v)", s.Dead, s)
	}
	if s.LostFrags != 0 {
		t.Fatalf("%d fragments lost with a surviving replica budget", s.LostFrags)
	}
	for _, idx := range []int{0, 2} {
		n := r.Node(idx)
		waitFor(t, fmt.Sprintf("node %d converging on version %d", idx, v), 15*time.Second, func() bool {
			b, err := n.Fetch("c.val")
			if err != nil {
				return false
			}
			got, ok := versionOf(b)
			return ok && got == int64(v)
		})
	}
	if s := r.MembershipStats(); s.ReplicaLag != 0 {
		t.Fatalf("settled replica lag %d, want 0 (stats %+v)", s.ReplicaLag, s)
	}
}

func TestPublishWithReplicasSurvivesOwnerDeath(t *testing.T) {
	r := newReplicaRing(t, 3, 1)
	defer r.Close()
	pub := bat.MakeInts("inter.x", []int64{7, 7, 7})
	if _, err := r.Node(1).Publish("inter.x", pub); err != nil {
		t.Fatal(err)
	}
	r.KillNode(1)
	waitFor(t, "published fragment re-owned", 15*time.Second, func() bool {
		return r.isDead(1) && r.UnownedFragments() == 0
	})
	b, err := r.Node(0).Fetch("inter.x")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 || b.Tail().Int(0) != 7 {
		t.Fatalf("fetched %v after owner death", b.Dump(3))
	}
}

func TestReplicasClampAndConfigEcho(t *testing.T) {
	cols, schema := testColumns()
	cfg := DefaultConfig()
	cfg.Replicas = 99 // more copies than nodes: clamp to n-1
	cfg.Heartbeat = fastHeartbeat()
	r, err := NewRing(3, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.memMu.RLock()
	defer r.memMu.RUnlock()
	for id, chain := range r.fragReplicas {
		if len(chain) != 2 {
			t.Fatalf("fragment %d: %d replicas, want n-1=2", id, len(chain))
		}
	}
}

func TestBeatCodecRoundTrip(t *testing.T) {
	view := membership.View{
		Version: 42,
		Status:  []membership.Status{membership.Alive, membership.Dead, membership.Suspect},
	}
	buf := make([]byte, beatMsgSize(len(view.Status)))
	nn := encodeBeatMsg(buf, 2, view)
	if nn != len(buf) {
		t.Fatalf("encoded %d bytes, want %d", nn, len(buf))
	}
	if !isBeatMsg(buf) {
		t.Fatal("isBeatMsg false on a beat")
	}
	from, got, err := decodeBeatMsg(buf)
	if err != nil {
		t.Fatal(err)
	}
	if from != 2 || got.Version != 42 || fmt.Sprint(got.Status) != fmt.Sprint(view.Status) {
		t.Fatalf("round trip: from=%d view=%+v", from, got)
	}
	// Truncated and corrupt beats must be rejected, not crash.
	if _, _, err := decodeBeatMsg(buf[:beatHdrSize+1]); err == nil {
		t.Fatal("truncated beat accepted")
	}
	if _, _, err := decodeBeatMsg(append(append([]byte(nil), buf...), 0)); err == nil {
		t.Fatal("beat with a trailing byte accepted")
	}
	buf[3] = envKindData
	if isBeatMsg(buf) {
		t.Fatal("kind mismatch accepted")
	}
}

// A node that stops draining its data receive loop — here stalled
// behind its own mu, exactly what a fragment-load storm does at scale —
// manufactures its own silence. The detector must not convert that
// self-inflicted silence into a death verdict against its healthy
// predecessor: ticks only count while dataLoop is parked in Recv.
// Regression for the cascading false deaths observed on a served
// 1M-row ring, where the load storm stalled every dataLoop at once and
// the survivors declared each other dead within seconds.
func TestStalledReceiverDoesNotAccusePredecessor(t *testing.T) {
	r := newJoinRing(t, 3, 1)
	defer r.Close()
	checkAnswer(t, r.Node(0), "before stall")

	// Background queries keep envelopes flowing into the stalled node,
	// so its dataLoop is demonstrably blocked mid-processing rather
	// than parked; mid-stall errors and stalls are expected and fine.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Node(2).ExecSQL(joinQuery)
		}
	}()

	n := r.Node(1)
	hold := 8 * r.cfg.Heartbeat.WithDefaults().DeadTimeout()
	n.mu.Lock()
	time.Sleep(hold)
	n.mu.Unlock()
	close(stop)
	wg.Wait()

	if got := atomic.LoadInt64(&r.failovers); got != 0 {
		t.Fatalf("stalled receiver triggered %d failovers, want 0", got)
	}
	for i := 0; i < 3; i++ {
		checkAnswer(t, r.Node(i), "after stall")
	}
}
