package live

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/mal"
	"repro/internal/minisql"
)

// fragColumns builds a deterministic two-table database big enough to
// split: "big" (rows × int columns) and a small "dim" lookup table that
// stays single-fragment, so fragmented and unfragmented columns mix in
// one plan.
func fragColumns(rows int) (map[string]*bat.BAT, minisql.Schema) {
	rng := rand.New(rand.NewSource(99))
	v := make([]int64, rows)
	k := make([]int64, rows)
	for i := range v {
		v[i] = int64(rng.Intn(10000))
		k[i] = int64(rng.Intn(8))
	}
	cols := map[string]*bat.BAT{
		"big.v":    bat.MakeInts("big.v", v),
		"big.k":    bat.MakeInts("big.k", k),
		"dim.id":   bat.MakeInts("dim.id", []int64{0, 1, 2, 3, 4, 5, 6, 7}),
		"dim.name": bat.MakeStrs("dim.name", []string{"a", "b", "c", "d", "e", "f", "g", "h"}),
	}
	schema := minisql.MapSchema{
		"big": {"v", "k"},
		"dim": {"id", "name"},
	}
	return cols, schema
}

var fragQueries = []string{
	"select sum(v), count(*) from big where v >= 100 and v < 5000",
	"select k, sum(v) from big group by k order by k",
	"select count(*) from big where v = 7",
	"select dim.name, sum(big.v) from big, dim where big.k = dim.id group by dim.name order by dim.name",
}

// resultBytes serializes a result set column-by-column with the wire
// codec, for byte-identical comparisons across rings.
func resultBytes(t *testing.T, rs *mal.ResultSet) []byte {
	t.Helper()
	var buf []byte
	for _, c := range rs.Cols {
		buf = bat.AppendMarshal(buf, c)
	}
	return buf
}

func TestFragmentSpansMath(t *testing.T) {
	if got := fragmentSpans(10, 0); len(got) != 1 || got[0] != [2]int{0, 10} {
		t.Fatalf("off: %v", got)
	}
	if got := fragmentSpans(10, 4); !reflect.DeepEqual(got, [][2]int{{0, 4}, {4, 8}, {8, 10}}) {
		t.Fatalf("spans: %v", got)
	}
	if got := fragmentSpans(0, 4); len(got) != 1 || got[0] != [2]int{0, 0} {
		t.Fatalf("empty: %v", got)
	}
}

// TestFragmentedColumnSplits checks the catalog: a long column becomes
// independent fragments, each its own BATID, spread over the nodes.
func TestFragmentedColumnSplits(t *testing.T) {
	cols, schema := fragColumns(3000)
	cfg := DefaultConfig()
	cfg.FragmentRows = 256
	r, err := NewRing(3, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ids, ok := r.Fragments("big.v")
	if !ok {
		t.Fatal("big.v missing from catalog")
	}
	if want := (3000 + 255) / 256; len(ids) != want {
		t.Fatalf("fragments = %d, want %d", len(ids), want)
	}
	seen := map[int]bool{}
	for _, id := range ids {
		owner := r.ownerOf(id)
		if owner == nil {
			t.Fatalf("fragment %d has no owner", id)
		}
		seen[int(owner.ID())] = true
	}
	if len(seen) != 3 {
		t.Fatalf("fragments concentrated on %d of 3 nodes", len(seen))
	}
	// dim stays single-fragment.
	if ids, _ := r.Fragments("dim.id"); len(ids) != 1 {
		t.Fatalf("dim.id fragmented into %d", len(ids))
	}
}

// TestFragmentedQueryMatchesBaseline is the correctness cornerstone:
// every query over a fragmented ring returns byte-identical results to
// the unfragmented baseline.
func TestFragmentedQueryMatchesBaseline(t *testing.T) {
	cols, schema := fragColumns(3000)
	base, err := NewRing(3, cols, schema, func() Config { c := DefaultConfig(); c.FragmentRows = 0; return c }())
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	fragCfg := DefaultConfig()
	fragCfg.FragmentRows = 256
	frag, err := NewRing(3, cols, schema, fragCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer frag.Close()

	for _, q := range fragQueries {
		want, err := base.Node(1).ExecSQL(q)
		if err != nil {
			t.Fatalf("%s (baseline): %v", q, err)
		}
		got, err := frag.Node(1).ExecSQL(q)
		if err != nil {
			t.Fatalf("%s (fragmented): %v", q, err)
		}
		if !bytes.Equal(resultBytes(t, want), resultBytes(t, got)) {
			t.Fatalf("%s: fragmented result differs\nwant %v\ngot  %v", q, want.Rows(), got.Rows())
		}
	}
}

// TestOutOfOrderFragmentArrival shuffles fragment arrival by placing
// fragments at seeded-random ring positions: a fragment's hop distance
// to the querying node dictates when it arrives, so a shuffled
// placement delivers fragments in shuffled order. Results must be
// byte-identical to the unfragmented baseline for every placement.
func TestOutOfOrderFragmentArrival(t *testing.T) {
	cols, schema := fragColumns(2000)
	base, err := NewRing(4, cols, schema, func() Config { c := DefaultConfig(); c.FragmentRows = 0; return c }())
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	baseline := map[string][]byte{}
	for _, q := range fragQueries {
		rs, err := base.Node(0).ExecSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		baseline[q] = resultBytes(t, rs)
	}

	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.FragmentRows = 128
		cfg.Workers = 3
		// Adverse placements: later fragments often land nearer the
		// querying node than earlier ones, so arrival order inverts and
		// interleaves across queries.
		cfg.placeFragment = func(frag, nodes int) int { return rng.Intn(nodes) }
		r, err := NewRing(4, cols, schema, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ids, _ := r.Fragments("big.v"); len(ids) != (2000+127)/128 {
			r.Close()
			t.Fatalf("seed %d: fragments = %d", seed, len(ids))
		}
		for _, q := range fragQueries {
			rs, err := r.Node(0).ExecSQL(q)
			if err != nil {
				r.Close()
				t.Fatalf("seed %d: %s: %v", seed, q, err)
			}
			if !bytes.Equal(baseline[q], resultBytes(t, rs)) {
				r.Close()
				t.Fatalf("seed %d: %s: result differs from unfragmented baseline", seed, q)
			}
		}
		r.Close()
	}
}

// TestFragmentedRegionSizing: the ring message limit (== RDMA region
// sizing) follows the largest fragment, not the largest column.
func TestFragmentedRegionSizing(t *testing.T) {
	// Batching sizes regions to the batch budget, not the fragment:
	// disable it so the limit under test is the per-fragment one.
	cols, schema := fragColumns(100_000)
	base, err := NewRing(2, cols, schema, func() Config {
		c := DefaultConfig()
		c.FragmentRows = 0
		c.HopBatchBytes = 0
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	unfrag := base.MaxMessage()
	base.Close()

	cfg := DefaultConfig()
	cfg.FragmentRows = 8192
	cfg.HopBatchBytes = 0
	r, err := NewRing(2, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	frag := r.MaxMessage()
	if frag*8 > unfrag {
		t.Fatalf("region sizing: fragmented limit %d not ≥8× below unfragmented %d", frag, unfrag)
	}
}

// TestFragmentedMaxHopBytes: circulating fragments keeps the largest
// single ring message ≥8× below the unfragmented column rotation.
func TestFragmentedMaxHopBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("moves ~MBs around the ring")
	}
	cols, schema := fragColumns(100_000)
	run := func(fragRows int) (int64, *mal.ResultSet) {
		cfg := DefaultConfig()
		cfg.FragmentRows = fragRows
		// This test measures circulating message sizes: disable the
		// hot-set cache so every pin drives circulation (with it on, a
		// pin of locally owned or cached fragments moves no data at all
		// and there may be nothing to measure), and disable hop batching,
		// which would coalesce the small fragments back into large
		// messages — the property under test is fragment granularity.
		cfg.CacheBytes = 0
		cfg.HopBatchBytes = 0
		r, err := NewRing(3, cols, schema, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		rs, err := r.Node(1).ExecSQL(fragQueries[0])
		if err != nil {
			t.Fatal(err)
		}
		// Sends are asynchronous; wait for the hot set to start rotating.
		deadline := time.Now().Add(5 * time.Second)
		for r.HopStats().MaxMsg == 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		maxMsg := r.HopStats().MaxMsg
		if maxMsg == 0 {
			t.Fatal("no data hops recorded")
		}
		return maxMsg, rs
	}
	bigHop, want := run(0)
	smallHop, got := run(8192)
	if smallHop*8 > bigHop {
		t.Fatalf("max hop bytes %d (fragmented) vs %d (unfragmented): want ≥8× reduction", smallHop, bigHop)
	}
	if !bytes.Equal(resultBytes(t, want), resultBytes(t, got)) {
		t.Fatal("fragmented result differs")
	}
}

// TestFetchFragmented: Fetch reassembles a fragmented column through
// the ring, equal to the registered data once widened (the ring stores
// fragments narrow, and the merge keeps their codes).
func TestFetchFragmented(t *testing.T) {
	cols, schema := fragColumns(2000)
	cfg := DefaultConfig()
	cfg.FragmentRows = 256
	r, err := NewRing(3, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.Node(2).Fetch("big.v")
	if err != nil {
		t.Fatal(err)
	}
	want := cols["big.v"]
	if !bytes.Equal(bat.AppendMarshal(nil, want), bat.AppendMarshal(nil, bat.Widen(got))) {
		t.Fatalf("fetched column differs: %s vs %s", got, want)
	}
}

// TestUpdateFragmentedColumn: updates re-divide the new version over
// the stable fragment set, bump every fragment's version together, and
// readers eventually see the new data everywhere.
func TestUpdateFragmentedColumn(t *testing.T) {
	cols, schema := fragColumns(2000)
	cfg := DefaultConfig()
	cfg.FragmentRows = 256
	// Aggressive eviction so re-fetches reload from the owners' stores.
	cfg.Core.LOITLevels = []float64{10}
	cfg.Core.AdaptiveLOIT = false
	r, err := NewRing(3, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var wantSum int64
	for i := 0; i < cols["big.v"].Len(); i++ {
		wantSum += cols["big.v"].Tail().Int(i) * 2
	}
	v, err := r.UpdateColumn("big.v", func(old *bat.BAT) *bat.BAT {
		if old.Len() != 2000 {
			t.Errorf("update saw %d rows, want the merged column", old.Len())
		}
		vals := make([]int64, old.Len())
		for i := range vals {
			vals[i] = old.Tail().Int(i) * 2
		}
		return bat.MakeInts("big.v", vals)
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("version = %d, want 1", v)
	}
	if rv, _ := r.Version("big.v"); rv != 1 {
		t.Fatalf("Version = %d, want 1", rv)
	}
	got, err := r.Node(1).Fetch("big.v")
	if err != nil {
		t.Fatal(err)
	}
	var gotSum int64
	for i := 0; i < got.Len(); i++ {
		gotSum += got.Tail().Int(i)
	}
	if gotSum != wantSum {
		t.Fatalf("sum after update = %d, want %d", gotSum, wantSum)
	}
}

// TestDeliverWithoutWaiterCountsNoRef is the regression test for the
// abandoned-pin leak: a delivery that finds no waiter (failQueryLocked
// ended the query's waits before the pass reached its pin) must not
// count a cached-payload reference nobody will release.
func TestDeliverWithoutWaiterCountsNoRef(t *testing.T) {
	cols, schema := fragColumns(100)
	r, err := NewRing(2, cols, schema, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := r.Node(0)
	payload := bat.MakeInts("stray", []int64{1, 2, 3})
	n.mu.Lock()
	n.transit[999] = newFragment(payload, 0, nil, nil)
	n.deliverLocked(7, 999) // no waiter registered for (7, 999)
	delete(n.transit, 999)
	leaked := len(n.cached)
	n.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("waiterless delivery pinned %d payloads forever", leaked)
	}
}

// TestFragmentedConcurrentQueries hammers a fragmented ring from every
// node at once; -race covers the pin pool and the shared catalog.
func TestFragmentedConcurrentQueries(t *testing.T) {
	cols, schema := fragColumns(1500)
	cfg := DefaultConfig()
	cfg.FragmentRows = 200
	r, err := NewRing(3, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want, err := r.Node(0).ExecSQL(fragQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := resultBytes(t, want)
	errs := make(chan error, 12)
	for i := 0; i < 12; i++ {
		go func(node int) {
			rs, err := r.Node(node).ExecSQL(fragQueries[0])
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(wantBytes, resultBytes(t, rs)) {
				errs <- fmt.Errorf("node %d: result differs", node)
				return
			}
			errs <- nil
		}(i % 3)
	}
	for i := 0; i < 12; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
