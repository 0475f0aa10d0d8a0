package bat

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// fetchTails are one value column of n rows in every tail form a
// positional fetch can gather from.
func fetchTails(rng *rand.Rand, n int) map[string]*Column {
	ints := func(span int64) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = -7 + rng.Int63n(span)
		}
		return v
	}
	prices, floats := make([]float64, n), make([]float64, n)
	oids, strs, bools := make([]Oid, n), make([]string, n), make([]bool, n)
	for i := range prices {
		prices[i] = float64(90000+rng.Intn(10000)) / 100
		floats[i] = rng.NormFloat64()
		oids[i] = Oid(rng.Intn(1 << 20))
		strs[i] = fmt.Sprint("s", rng.Intn(50))
		bools[i] = rng.Intn(2) == 0
	}
	return map[string]*Column{
		"narrow1": widthColumn(ints(1<<8), 1),
		"narrow2": widthColumn(ints(1<<16), 2),
		"narrow4": widthColumn(ints(1<<32), 4),
		"decimal": Narrow(MakeFloats("p", prices)).Tail(),
		"int":     IntColumn(ints(1 << 62)),
		"float":   FloatColumn(floats),
		"oid":     OidColumn(oids),
		"dense":   DenseColumn(77, n),
		"str":     StrColumn(strs),
		"bool":    BoolColumn(bools),
	}
}

// candBAT is a candidate list [oids | oids], flagged sorted or not, as
// candList builds them.
func candBAT(oids []Oid, flagged bool) *BAT {
	c := &Column{kind: KOid, oids: oids, sorted: flagged}
	return &BAT{Name: "cand", h: c, t: c}
}

// fetchRef is the positional fetch row by row: for each candidate whose
// OID r's dense head holds, the candidate's head and r's value there.
func fetchRef(cand, r *BAT) (heads, tails []any) {
	base, n := r.Head().Base(), Oid(r.Len())
	for i := 0; i < cand.Len(); i++ {
		if o := cand.Tail().Oid(i); o >= base && o < base+n {
			heads, tails = append(heads, cand.Head().Value(i)), append(tails, r.Tail().Value(int(o-base)))
		}
	}
	return heads, tails
}

// TestFetchSortedCandidates holds the positional fetch to its row-by-row
// definition for every tail form and candidate shape. A sorted list is
// checked against the value column's head by its first and last OIDs
// alone; a list that starts below the head, ends at or past its end, or
// is not flagged sorted is counted, to the same answer. A list that
// lands whole is gathered straight from its OIDs: the candidate head
// passes through, and nothing is allocated but the gathered column (no
// index array).
func TestFetchSortedCandidates(t *testing.T) {
	const n, base = 300, Oid(1000)
	rng := rand.New(rand.NewSource(41))
	all := make([]Oid, n)
	for i := range all {
		all[i] = base + Oid(i)
	}
	var sparse, dups []Oid
	for _, o := range all {
		if rng.Intn(5) == 0 {
			sparse = append(sparse, o)
		}
		for k := rng.Intn(3); k > 0 && rng.Intn(3) == 0; k-- {
			dups = append(dups, o)
		}
	}
	inside := map[string][]Oid{
		"empty":      {},
		"one row":    {base + 123},
		"first":      {base},
		"last":       {base + n - 1},
		"all rows":   all,
		"sparse":     sparse,
		"duplicates": dups,
	}
	outside := map[string][]Oid{
		"below base":    append([]Oid{base - 1}, sparse...),
		"at the end":    append(append([]Oid{}, sparse...), base+n),
		"past the end":  append(append([]Oid{}, sparse...), base+n+40),
		"both ends out": {base - 5, base + 1, base + n + 1},
		"all out":       {base + n, base + n + 1},
	}
	shuffled := append([]Oid{}, sparse...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if sort.SliceIsSorted(shuffled, func(i, j int) bool { return shuffled[i] < shuffled[j] }) {
		t.Fatal("the shuffled list came out sorted")
	}
	for form, tail := range fetchTails(rng, n) {
		r := New("r", DenseColumn(base, n), tail)
		check := func(what string, oids []Oid, flagged bool) {
			t.Helper()
			cand := candBAT(oids, flagged)
			got := cand.Join(r)
			heads, tails := fetchRef(cand, r)
			if got.Len() != len(heads) || got.Tail().Kind() != tail.Kind() {
				t.Fatalf("%s, %s: %d rows of %s, want %d of %s", form, what, got.Len(), got.Tail().Kind(), len(heads), tail.Kind())
			}
			for i := range heads {
				if got.Head().Value(i) != heads[i] || !sameValue(got.Tail().Value(i), tails[i]) {
					t.Fatalf("%s, %s, row %d: %v -> %v, want %v -> %v", form, what, i,
						got.Head().Value(i), got.Tail().Value(i), heads[i], tails[i])
				}
			}
			if len(oids) == 0 || len(heads) != len(oids) {
				return
			}
			// Every row lands: the fetch allocates the gathered column and
			// the BAT, and no index array.
			gather := testing.AllocsPerRun(20, func() { benchSink = tail.takeOids(oids, base) })
			allocs := testing.AllocsPerRun(20, func() { benchSink = cand.Join(r) })
			switch {
			case got.Head() != cand.Head():
				t.Fatalf("%s, %s: the candidate head was copied", form, what)
			case allocs != gather+1:
				t.Fatalf("%s, %s: %v allocations, want the gathered column's %v and the BAT", form, what, allocs, gather)
			}
		}
		if form == "decimal" && tail.Width() != 2 {
			t.Fatalf("decimal tail is %d bytes wide, want 2", tail.Width())
		}
		for what, oids := range inside {
			check(what, oids, true)
			check(what+", unflagged", oids, false)
		}
		for what, oids := range outside {
			check(what, oids, true)
		}
		check("unsorted", shuffled, false)
	}
}
