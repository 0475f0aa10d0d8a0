package live

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/minisql"
)

// batchCases builds batch entries over every column kind and property
// combination the codec carries (mirroring the bat wire tests): ints,
// wide and narrow, floats, strings (odd lengths, so padding varies),
// oids, bools, dense heads, sorted columns, slices, and empty payloads.
func batchCases() []batchEntry {
	strs := []string{"a", "", "hello world", "\x00bin\xff", "odd"}
	sorted := bat.MakeInts("sorted", []int64{5, 3, 1, 4}).SortT(false)
	payloads := []*bat.BAT{
		bat.MakeInts("ints", []int64{1, -2, 3, 1 << 62}),
		bat.Narrow(bat.MakeInts("narrow", []int64{19940101, 19940356, 19940200})),
		bat.MakeFloats("floats", []float64{1.5, -2.25, 0, -0.0}),
		bat.MakeStrs("strs", strs),
		bat.MakeOids("oids", []bat.Oid{0, 5, bat.NilOid}),
		bat.New("bools", bat.DenseColumn(10, 5), bat.BoolColumn([]bool{true, false, true, true, false})),
		bat.New("densedense", bat.DenseColumn(3, 5), bat.DenseColumn(100, 5)),
		sorted,
		sorted.Slice(1, 3),
		bat.MakeInts("empty", nil),
		bat.MakeStrs("emptystrs", nil),
	}
	entries := make([]batchEntry, len(payloads))
	for i, b := range payloads {
		entries[i] = batchEntry{
			m: core.BATMsg{
				Owner:  core.NodeID(i % 3),
				BAT:    core.BATID(100 + i),
				Size:   b.Bytes(),
				LOI:    0.25 * float64(i),
				Copies: i,
				Hops:   i * 7,
				Cycles: i % 4,
			},
			ver:     i % 5,
			payload: bat.AppendMarshal(nil, b),
		}
	}
	return entries
}

// encodeSingle is the reference v2 single-fragment encoding of one
// entry — what the unbatched ring would have sent.
func encodeSingle(e batchEntry) []byte {
	buf := make([]byte, dataHdrSize+len(e.payload))
	encodeDataHdr(buf, e.m, e.ver, len(e.payload))
	copy(buf[dataHdrSize:], e.payload)
	return buf
}

// TestBatchRoundtripProperty: unbatch(batch(frags)) ≡ frags
// byte-identically for every kind/property combination — each decoded
// entry re-encodes to the exact v2 single message of the original, and
// every payload decodes through bat.UnmarshalView like a single's would.
func TestBatchRoundtripProperty(t *testing.T) {
	cases := batchCases()
	// Sweep batch sizes 1..len: padding interactions differ with the mix.
	for size := 1; size <= len(cases); size++ {
		entries := cases[:size]
		data := encodeBatch(nil, entries)
		got, err := decodeBatchMsg(data)
		if err != nil {
			t.Fatalf("size %d: decode: %v", size, err)
		}
		if len(got) != len(entries) {
			t.Fatalf("size %d: %d entries decoded, want %d", size, len(got), len(entries))
		}
		for i, e := range entries {
			g := got[i]
			if g.m != e.m || g.ver != e.ver {
				t.Fatalf("size %d entry %d: header roundtrip: got (%+v, %d) want (%+v, %d)",
					size, i, g.m, g.ver, e.m, e.ver)
			}
			if !bytes.Equal(encodeSingle(g), encodeSingle(e)) {
				t.Fatalf("size %d entry %d: unbatched bytes differ from the v2 single", size, i)
			}
			if len(e.payload) > 0 {
				if _, err := bat.UnmarshalView(g.payload); err != nil {
					t.Fatalf("size %d entry %d: payload no longer decodes: %v", size, i, err)
				}
			}
		}
		// Payloads must land 8-aligned relative to the message, the
		// zero-copy decode contract.
		off := batchHdrSize + size*dataHdrSize
		for i := range entries {
			if off%8 != 0 {
				t.Fatalf("size %d entry %d: payload offset %d not 8-aligned", size, i, off)
			}
			off += pad8(len(entries[i].payload))
		}
	}
}

// TestBatchRejectsCorruption sweeps the v3 decoder with truncations,
// count overflows, misaligned offsets, and header corruption: every
// mutation must be rejected, never partially decoded or panicked on.
func TestBatchRejectsCorruption(t *testing.T) {
	entries := batchCases()[:3]
	good := encodeBatch(nil, entries)
	clone := func() []byte { return append([]byte(nil), good...) }

	muts := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", good[:4]},
		{"bad magic", append([]byte{'X', 'X'}, good[2:]...)},
		{"v2 version byte", append([]byte{'D', 'R', envVersion, envKindBatch}, good[4:]...)},
		{"data kind byte", append([]byte{'D', 'R', envVersionBatch, envKindData}, good[4:]...)},
		{"count zero", func() []byte {
			d := clone()
			binary.LittleEndian.PutUint32(d[4:], 0)
			return d
		}()},
		{"count overflow", func() []byte {
			d := clone()
			binary.LittleEndian.PutUint32(d[4:], 0xFFFFFFFF)
			return d
		}()},
		{"count over cap", func() []byte {
			d := clone()
			binary.LittleEndian.PutUint32(d[4:], maxHopBatchFrags+1)
			return d
		}()},
		{"count claims more entries", func() []byte {
			d := clone()
			binary.LittleEndian.PutUint32(d[4:], uint32(len(entries)+1))
			return d
		}()},
		{"truncated entry table", good[:batchHdrSize+dataHdrSize*len(entries)-7]},
		{"truncated last payload", good[:len(good)-5]},
		{"trailing bytes", append(clone(), 0xAB)},
		{"entry header magic", func() []byte {
			d := clone()
			d[batchHdrSize] = 'X' // first entry's magic byte
			return d
		}()},
		{"entry payload length grown", func() []byte {
			// Inflating entry 0's length field shifts every later payload
			// offset: either a bounds failure or the exactness check trips.
			d := clone()
			le := binary.LittleEndian
			cur := le.Uint32(d[batchHdrSize+4:])
			le.PutUint32(d[batchHdrSize+4:], cur+8)
			return d
		}()},
		{"entry payload length misaligned", func() []byte {
			// A length that is not the encoded payload's: the trailing
			// exactness check must catch the drifted offsets.
			d := clone()
			le := binary.LittleEndian
			cur := le.Uint32(d[batchHdrSize+4:])
			le.PutUint32(d[batchHdrSize+4:], cur+1)
			return d
		}()},
		{"entry payload length huge", func() []byte {
			d := clone()
			binary.LittleEndian.PutUint32(d[batchHdrSize+4:], 1<<30)
			return d
		}()},
	}
	for _, mut := range muts {
		if _, err := decodeBatchMsg(mut.data); err == nil {
			t.Errorf("%s: accepted", mut.name)
		}
	}
	// The single-message decoder must reject a batch envelope and vice
	// versa: the kinds don't alias.
	if _, _, _, err := decodeDataMsg(good); err == nil {
		t.Error("v2 decoder accepted a batch envelope")
	}
	single := encodeSingle(entries[0])
	if _, err := decodeBatchMsg(single); err == nil {
		t.Error("batch decoder accepted a v2 single")
	}
	if isBatchMsg(single) {
		t.Error("isBatchMsg matched a v2 single")
	}
	if !isBatchMsg(good) {
		t.Error("isBatchMsg rejected a batch")
	}
}

// TestCorruptBatchIsDroppedWhole: a batch envelope that fails validation
// reaches the receive loop, which delivers none of its entries — not
// even the well-formed ones ahead of the damage — and recycles the slab
// it arrived in.
func TestCorruptBatchIsDroppedWhole(t *testing.T) {
	r := newTestRing(t, 2)
	defer r.Close()
	sender, reader := r.Node(0), r.Node(1)
	cols, _ := testColumns()
	var entries []batchEntry
	for _, name := range r.names {
		ids, _ := r.Fragments(name)
		if id := ids[0]; r.ownerOf(id) == sender {
			entries = append(entries, batchEntry{
				m:       core.BATMsg{Owner: sender.id, BAT: id, Size: cols[name].Bytes(), LOI: 1},
				payload: bat.AppendMarshal(nil, cols[name]),
			})
		}
	}
	if len(entries) < 2 {
		t.Fatalf("node 0 owns %d fragments, want 2", len(entries))
	}
	batch := encodeBatch(nil, entries)
	batch[batchHdrSize+dataHdrSize] = 'X' // the second entry's magic
	// The link is FIFO and the ring is idle: once the receive loop has
	// handled a v2 message sent after the batch — a payloadless return
	// of a fragment reader owns and has not loaded, which it only notes
	// as a homecoming — it has handled the batch too.
	var marker core.BATID = -1
	for _, name := range r.names {
		ids, _ := r.Fragments(name)
		if r.ownerOf(ids[0]) == reader {
			marker = ids[0]
		}
	}
	if marker < 0 {
		t.Fatal("node 1 owns no fragment")
	}
	single := encodeSingle(batchEntry{m: core.BATMsg{Owner: reader.id, BAT: marker}})
	before := reader.Stats().BATsForwarded
	for _, msg := range [][]byte{batch, single} {
		if err := sender.link(&sender.dataOut).Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		reader.mu.Lock()
		seen := reader.tab.m[marker].seen
		reader.mu.Unlock()
		if seen != 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the message sent after the batch never arrived")
		}
	}
	if cs := reader.CacheStats(); cs.Inserts != 0 {
		t.Fatalf("%d entries of a corrupt batch reached the hot cache", cs.Inserts)
	}
	if got := reader.Stats().BATsForwarded; got != before {
		t.Fatalf("%d entries of a corrupt batch were forwarded", got-before)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		reader.slabs.mu.Lock()
		held := len(reader.slabs.out)
		reader.slabs.mu.Unlock()
		if held == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d received slabs never went back to the free list", held)
		}
	}
}

// fragTestRing builds a ring whose columns fragment into many pieces,
// so one query queues many co-resident outbound fragments per node.
func fragTestRing(t *testing.T, mutate func(*Config)) *Ring {
	t.Helper()
	n := 512
	ids := make([]int64, n)
	vals := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
		vals[i] = int64(i * 3)
	}
	cols := map[string]*bat.BAT{
		"t.id":  bat.MakeInts("t.id", ids),
		"t.val": bat.MakeInts("t.val", vals),
	}
	schema := minisql.MapSchema{"t": {"id", "val"}}
	cfg := DefaultConfig()
	cfg.FragmentRows = 32 // 16 fragments per column
	cfg.CacheBytes = 0    // every pin rides the ring
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := NewRing(3, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestHopBatchingEndToEnd runs a fragmented query workload with
// batching on and checks both correctness and that the transport
// actually coalesced: fewer hop messages than fragments, a populated
// multi-fragment fill histogram, and matching Frags accounting.
func TestHopBatchingEndToEnd(t *testing.T) {
	r := fragTestRing(t, nil)
	defer r.Close()
	want := int64(0)
	for i := 0; i < 512; i++ {
		want += int64(i) * 3
	}
	for q := 0; q < 3; q++ {
		rs, err := r.Node(q % 3).ExecSQL("select sum(t.val) from t")
		if err != nil {
			t.Fatal(err)
		}
		if got := rs.Rows()[0][0].(int64); got != want {
			t.Fatalf("query %d: sum = %d, want %d", q, got, want)
		}
	}
	s := r.HopStats()
	if s.Msgs == 0 || s.Frags == 0 {
		t.Fatalf("no hop traffic recorded: %+v", s)
	}
	if s.Batches == 0 {
		t.Fatalf("no batches formed over a 16-fragment workload: %+v", s)
	}
	if s.Frags <= s.Msgs {
		t.Fatalf("no coalescing: %d fragments in %d messages", s.Frags, s.Msgs)
	}
	if s.Msgs != s.Singles+s.Batches {
		t.Fatalf("Msgs %d != Singles %d + Batches %d", s.Msgs, s.Singles, s.Batches)
	}
	var fill int64
	for _, c := range s.Fill {
		fill += c
	}
	if fill != s.Msgs {
		t.Fatalf("fill histogram sums to %d, want Msgs %d", fill, s.Msgs)
	}
	var multi int64
	for _, c := range s.Fill[1:] {
		multi += c
	}
	if multi != s.Batches {
		t.Fatalf("multi-fragment fill buckets sum to %d, want Batches %d", multi, s.Batches)
	}
}

// TestHopBatchingDisabled: HopBatchBytes=0 keeps the per-fragment v2
// path — every message is a single, no batch envelope ever forms — and
// keeps LOI pacing, which does not depend on batching.
func TestHopBatchingDisabled(t *testing.T) {
	r := fragTestRing(t, func(cfg *Config) { cfg.HopBatchBytes = 0 })
	defer r.Close()
	if got := r.cfg.Core.ParkIdleCycles; got != 2 {
		t.Fatalf("an unbatched ring parks after %d idle revolutions, want 2", got)
	}
	if _, err := r.Node(1).ExecSQL("select sum(t.val) from t"); err != nil {
		t.Fatal(err)
	}
	s := r.HopStats()
	if s.Msgs == 0 {
		t.Fatal("no hop traffic recorded")
	}
	if s.Batches != 0 {
		t.Fatalf("batches formed with batching disabled: %+v", s)
	}
	if s.Singles != s.Msgs || s.Frags != s.Msgs {
		t.Fatalf("unbatched accounting broken: %+v", s)
	}
}

// TestCirculationStartsNoGoroutine: a request, a hop or a ring wait
// costs no goroutine. The runtime's effects are applied under the node
// lock and queued for the node's long-lived senders, and a ring wait is
// an entry in the node's waiters, so while queries circulate fragments
// on a cache-less 3-node ring, unbatched and batched, every goroutine
// this module created must be one that is meant to exist: a node's
// loops (receives, hop flush, request sender), an aligned map's
// workers — at most Workers − 1 a running query, however many of its
// fragments are still on the ring — the interpreter's dataflow workers
// (ROADMAP item 30 folds both into one worker set per node), a link's
// acceptor that NewRing left exiting, or the test's own. Timer
// callbacks (liveEnv.After) are the Go runtime's goroutines, not this
// module's.
func TestCirculationStartsNoGoroutine(t *testing.T) {
	allowed := []string{
		"created by repro/internal/live.(*Node).startLoops",
		"created by repro/internal/rdma.NewTCPPair",
		"created by repro/internal/live.(*queryDC).mapParts",
		"created by repro/internal/mal.(*binding).runParallel",
		"created by repro/internal/live.TestCirculationStartsNoGoroutine",
	}
	for _, batch := range []int{0, DefaultConfig().HopBatchBytes} {
		batch := batch
		t.Run(fmt.Sprintf("HopBatchBytes=%d", batch), func(t *testing.T) {
			r := fragTestRing(t, func(cfg *Config) { cfg.HopBatchBytes = batch })
			defer r.Close()
			var wg sync.WaitGroup
			for node := 0; node < r.Size(); node++ {
				wg.Add(1)
				go func(node int) {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						if _, err := r.Node(node).ExecSQL("select sum(t.val) from t"); err != nil {
							t.Error(err)
							return
						}
					}
				}(node)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			helpers := r.cfg.Workers - 1
			samples, stray, over := 0, "", ""
			for running := true; running && stray == "" && over == ""; samples++ {
				select {
				case <-done:
					running = false
				default:
				}
				// Queries and map workers are counted in one snapshot: a
				// map's busy workers belong to a query inside ExecPlan.
				queries, workers := 0, 0
				for _, g := range leakcheck.Goroutines() {
					if strings.Contains(g, "live.(*Node).ExecPlan(") {
						queries++
					}
					i := strings.Index(g, "\ncreated by repro/internal/")
					if i < 0 {
						continue
					}
					if strings.HasPrefix(g[i+1:], "created by repro/internal/live.(*queryDC).mapParts") && busyMapGoroutine(g) {
						workers++
					}
					ok := false
					for _, a := range allowed {
						ok = ok || strings.HasPrefix(g[i+1:], a)
					}
					if !ok {
						stray = g
					}
				}
				if workers > queries*helpers {
					for _, g := range leakcheck.Goroutines() {
						if strings.Contains(g, "ExecPlan(") || strings.Contains(g, "created by repro/internal/live.(*queryDC).mapParts") {
							t.Log(g)
						}
					}
					over = fmt.Sprintf("%d goroutines started by aligned maps while %d queries ran, want at most Workers − 1 = %d a query", workers, queries, helpers)
				}
			}
			<-done
			if stray != "" {
				t.Fatalf("a goroutine outside the ring's loops and the query's workers:\n%s", stray)
			}
			if over != "" {
				t.Fatal(over)
			}
			st, hs := r.node(0).Stats(), r.HopStats()
			if st.RequestsSent == 0 || hs.Msgs == 0 {
				t.Fatalf("nothing circulated: %d requests sent by node 0, %d hop messages", st.RequestsSent, hs.Msgs)
			}
			t.Logf("%d samples, %d hop messages (%d batches)", samples, hs.Msgs, hs.Batches)
		})
	}
}

// busyMapGoroutine reports whether g, a goroutine an aligned map
// started, still works for its map: it is past its entry frame, and
// neither in the WaitGroup.Done that lets the map return nor exiting
// after it (runtime.goexit1). One that is has done its share, and may
// outlive its query by a scheduling delay.
func busyMapGoroutine(g string) bool {
	// A header line, two lines a frame, two for "created by".
	frames := (strings.Count(g, "\n") + 1 - 3) / 2
	return frames > 1 && !strings.Contains(g, "sync.(*WaitGroup).Done(") && !strings.Contains(g, "runtime.goexit1(")
}

// TestHopPacingParksIdleFragments: with LOI pacing on (every live
// ring's default), fragments nobody pins stop circulating within a few
// revolutions, and a later query's interest signal re-admits them.
func TestHopPacingParksIdleFragments(t *testing.T) {
	r := fragTestRing(t, func(cfg *Config) {
		// Fast revolutions so parking happens quickly.
		cfg.Core.LoadAllPeriod = 5 * time.Millisecond
	})
	defer r.Close()
	if _, err := r.Node(0).ExecSQL("select sum(t.val) from t"); err != nil {
		t.Fatal(err)
	}
	// With the query done there is no interest left: every circulating
	// fragment leaves the orbit within a few revolutions, parked at its
	// owner or unloaded. Wait for the whole ring to go quiet, not for the
	// first park — which fragments a later query must unpark is only
	// known once nothing is still moving.
	var parked []int // per node
	deadline := time.Now().Add(5 * time.Second)
	for {
		var circulating int
		circulating, parked = orbitState(r)
		if circulating == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d fragments still circulating on an idle ring", circulating)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Query from the node owning the fewest parked fragments: at least
	// one fragment it needs is parked elsewhere, so its interest signal
	// must unpark something.
	q, total := 0, 0
	for i, p := range parked {
		total += p
		if p < parked[q] {
			q = i
		}
	}
	if s := r.HopStats(); total == 0 || s.ParkedTotal == 0 {
		t.Fatalf("no fragments parked on an idle ring: %+v", s)
	}
	before := r.HopStats().Unparked
	resends := ringResends(r)
	rs, err := r.Node(q).ExecSQL("select sum(t.val) from t")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := 0; i < 512; i++ {
		want += int64(i) * 3
	}
	if got := rs.Rows()[0][0].(int64); got != want {
		t.Fatalf("post-park sum = %d, want %d", got, want)
	}
	if s := r.HopStats(); s.Unparked == before {
		t.Fatalf("interest did not unpark any of the %d fragments parked away from node %d: %+v",
			total-parked[q], q, s)
	}
	if d := ringResends(r) - resends; d != 0 {
		t.Fatalf("%d resends re-admitting parked fragments on a lossless ring", d)
	}
}

// orbitState reports how many owned fragments are in orbit (loaded and
// not parked) or waiting to enter it ring-wide, and how many each node
// holds parked.
func orbitState(r *Ring) (circulating int, parked []int) {
	parked = make([]int, r.Size())
	for i := range parked {
		n := r.Node(i)
		n.mu.Lock()
		circulating += n.rt.PendingLoads()
		for _, b := range n.rt.OwnedBATs() {
			switch {
			case n.rt.Parked(b):
				parked[i]++
			case n.rt.Loaded(b):
				circulating++
			}
		}
		n.mu.Unlock()
	}
	return circulating, parked
}

// ringResends sums the resend counter over every node.
func ringResends(r *Ring) uint64 {
	var total uint64
	for i := 0; i < r.Size(); i++ {
		total += r.Node(i).Stats().Resends
	}
	return total
}

// TestHopSchedulerTake exercises the flush policy directly: budget
// bounds, the always-take-first rule, and the entry cap.
func TestHopSchedulerTake(t *testing.T) {
	frag := func(raw int) *fragment { return &fragment{raw: make([]byte, raw)} }
	// Budget fits the batch header plus two 100-byte entries, not three.
	budget := batchHdrSize + 2*batchEntryWire(100)
	hs := newHopScheduler(budget)
	for i := 0; i < 5; i++ {
		hs.enqueue(hopEntry{m: core.BATMsg{BAT: core.BATID(i)}, f: frag(100)})
	}
	if got := len(hs.take()); got != 2 {
		t.Fatalf("first take = %d entries, want 2 (budget-bounded)", got)
	}
	if got := len(hs.take()); got != 2 {
		t.Fatalf("second take = %d entries, want 2", got)
	}
	if got := len(hs.take()); got != 1 {
		t.Fatalf("third take = %d entries, want 1 (remainder)", got)
	}
	if hs.take() != nil {
		t.Fatal("take on an empty queue should return nil")
	}
	// An oversized first entry still travels (as a single).
	hs.enqueue(hopEntry{m: core.BATMsg{BAT: 99}, f: frag(10 * budget)})
	hs.enqueue(hopEntry{m: core.BATMsg{BAT: 100}, f: frag(100)})
	if got := len(hs.take()); got != 1 {
		t.Fatalf("oversized first entry: take = %d, want 1", got)
	}
	// The entry-count cap holds even under a huge budget.
	big := newHopScheduler(1 << 30)
	for i := 0; i < maxHopBatchFrags+10; i++ {
		big.enqueue(hopEntry{m: core.BATMsg{BAT: core.BATID(i)}, f: frag(8)})
	}
	if got := len(big.take()); got != maxHopBatchFrags {
		t.Fatalf("take = %d entries, want the %d cap", got, maxHopBatchFrags)
	}
}

// TestFillBucket pins the histogram bucketing.
func TestFillBucket(t *testing.T) {
	want := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 17: 5, 32: 5, 33: 6, 64: 6, 65: 7}
	for frags, bucket := range want {
		if got := fillBucket(frags); got != bucket {
			t.Errorf("fillBucket(%d) = %d, want %d", frags, got, bucket)
		}
	}
}
