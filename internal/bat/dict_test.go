package bat

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestDictionaryBytesRule: Narrow codes a string column exactly when
// n·w + 16·d < 16·n, at the width that holds d, and a 64K-row fragment
// of three flags then travels in a fifth of its plain bytes.
func TestDictionaryBytesRule(t *testing.T) {
	gen := func(n, d int) []string {
		v := make([]string, n)
		for i := range v {
			v[i] = fmt.Sprintf("v%05d", i%d)
		}
		return v
	}
	for _, c := range []struct {
		n, d, width int // width 0: stays plain
	}{
		{1, 1, 0},
		{2, 1, 1},
		{16, 15, 0},   // 16 + 240 = 256, not below 256
		{17, 15, 1},   // 17 + 240 < 272
		{280, 256, 1}, // 280 + 4096 < 4480
		{280, 257, 0}, // 560 + 4112 ≥ 4480
		{4000, 257, 2},
		{1 << 17, 1<<16 + 1, 4},
		{1 << 17, 1 << 16, 2},
	} {
		b := Narrow(MakeStrs("s", gen(c.n, c.d)))
		if got := b.Tail().Width(); got != c.width {
			t.Errorf("%d rows of %d values: width %d, want %d", c.n, c.d, got, c.width)
		}
		if c.width > 0 && (len(b.Tail().dict) != c.d || b.Tail().narrow.top() != uint32(c.d-1)) {
			t.Errorf("%d rows of %d values: %d dictionary entries under bound %d", c.n, c.d, len(b.Tail().dict), b.Tail().narrow.top())
		}
	}
	rng := rand.New(rand.NewSource(47))
	flags := make([]string, 1<<16)
	for i := range flags {
		flags[i] = []string{"A", "N", "R"}[rng.Intn(3)]
	}
	plain := MakeStrs("flags", flags)
	if got, want := MarshalSize(plain), 327752; got != want {
		t.Errorf("a plain 64K-row flag fragment is %d wire bytes, want %d", got, want)
	}
	if got, want := MarshalSize(Narrow(plain)), 65632; got != want {
		t.Errorf("a coded 64K-row flag fragment is %d wire bytes, want %d", got, want)
	}
}

// FuzzStrDict: a string column of values drawn from a fuzzed pool
// answers on its Narrow twin what it answers plain. Widen(Narrow(b)) is
// b; the range and equality selects at the fuzzed literals and at a
// value of the column and its neighbours, Min, Max, grouping, the sort,
// the joins, a concat of separately narrowed halves and of
// views, and the wire round trip all agree.
func FuzzStrDict(f *testing.F) {
	f.Add("A,N,R", []byte{0, 1, 2, 0, 0, 1, 2, 2, 1, 0}, "B", "N", uint8(0))
	f.Add("F,O", []byte{1, 1, 0, 1, 0, 0, 0, 1}, "", "O", uint8(3))
	f.Add(",AIR,REG AIR,RAIL", []byte{3, 0, 1, 2, 3, 3, 0, 1, 2, 2, 1}, "A", "RAIL", uint8(5))
	f.Add("BUILDING,AUTOMOBILE,FURNITURE,HOUSEHOLD,MACHINERY", []byte{0, 1, 2, 3, 4, 0, 0, 1, 2, 3, 4, 4}, "BUILDING", "BUILDING", uint8(2))
	f.Add("x", []byte{0, 0, 0}, "x", "x", uint8(4))
	f.Fuzz(func(t *testing.T, words string, picks []byte, lo, hi string, form uint8) {
		picks = picks[:min(len(picks), 256)] // the self-join's pairs grow as n²
		pool := strings.Split(words, ",")
		vals := make([]string, len(picks))
		for i, p := range picks {
			vals[i] = pool[int(p)%len(pool)]
		}
		sorted := form&1 != 0
		if sorted {
			sort.Strings(vals)
		}
		tail := StrColumn(vals)
		tail.SetSorted(sorted)
		n := len(vals)
		wide := New("s", DenseColumn(7, n), tail)
		nb := Narrow(wide)
		same := func(op string, want, got *BAT) { t.Helper(); sameWide(t, op, want, got) }
		same("Widen(Narrow)", wide, nb)
		if n > 0 {
			for _, op := range []struct {
				name      string
				want, got any
			}{{"Min", wide.Min(), nb.Min()}, {"Max", wide.Max(), nb.Max()}} {
				if op.want != op.got {
					t.Fatalf("%s = %q, plain answers %q", op.name, op.got, op.want)
				}
			}
		}

		lits := []string{lo, hi}
		if n > 0 {
			v := vals[int(form>>3)%n]
			lits = append(lits, v, v+"\x00")
			if v != "" {
				lits = append(lits, v[:len(v)-1])
			}
		}
		cand := wide.Slice(n/3, n).Mirror()
		for i, l := range lits {
			same(fmt.Sprintf("SelectEq(%q)", l), wide.SelectEq(l), nb.SelectEq(l))
			same(fmt.Sprintf("SelectNe(%q)", l), wide.SelectNe(l), nb.SelectNe(l))
			for _, h := range lits[i:] {
				for _, incl := range [][2]bool{{true, true}, {false, true}, {true, false}, {form&2 != 0, form&4 != 0}} {
					lb, hb := &Bound{Value: l, Inclusive: incl[0]}, &Bound{Value: h, Inclusive: incl[1]}
					for _, b := range [][2]*Bound{{lb, hb}, {hb, lb}, {lb, nil}, {nil, hb}} {
						what := fmt.Sprintf("bounds %v..%v", b[0], b[1])
						same(what+": Select", wide.Select(b[0], b[1]), nb.Select(b[0], b[1]))
						same(what+": USelect", wide.USelect(b[0], b[1]), nb.USelect(b[0], b[1]))
						same(what+": USelectCand", wide.USelectCand(cand, b[0], b[1]), nb.USelectCand(cand, b[0], b[1]))
					}
				}
			}
		}

		wg, wreps := wide.GroupIDsPos()
		ng, nreps := nb.GroupIDsPos()
		same("GroupIDsPos", wg, ng)
		same("GroupIDsPos reps", wreps, nreps)
		wg, wreps = wide.GroupIDs()
		ng, nreps = nb.GroupIDs()
		same("GroupIDs", wg, ng)
		same("GroupIDs reps", wreps, nreps)
		old := make([]Oid, n)
		for i := range old {
			old[i] = Oid(picks[i] % 3)
		}
		groups, _ := New("g", DenseColumn(7, n), OidColumn(old)).GroupIDs() // ids without gaps
		wr, wreps := GroupDerive(groups, wide)
		nr, nreps := GroupDerive(groups, nb)
		same("GroupDerive", wr, nr)
		same("GroupDerive reps", wreps, nreps)
		same("GroupedMax", GroupedMax(groups, wide), GroupedMax(groups, nb))
		same("SortT", wide.SortT(false), nb.SortT(false))
		same("SortT desc", wide.SortT(true), nb.SortT(true))
		same("Join", wide.Join(wide.Reverse()), nb.Join(nb.Reverse()))
		same("Semijoin", wide.Reverse().Semijoin(wide.Reverse()), nb.Reverse().Semijoin(nb.Reverse()))

		half := n / 2
		h0, h1 := Narrow(wide.Slice(0, half)), Narrow(wide.Slice(half, n))
		halves := Concat([]*BAT{h0, h1})
		same("Concat halves", wide, halves)
		// Halves keep their codes only when they share a dictionary (or
		// one is empty); any other merge decodes to plain strings.
		want := 0
		switch {
		case half == 0:
			want = h1.Tail().Width()
		case h0.Tail().Width() > 0 && h1.Tail().Width() > 0 && slices.Equal(h0.Tail().dict, h1.Tail().dict):
			want = max(h0.Tail().Width(), h1.Tail().Width())
		}
		if got := halves.Tail().Width(); got != want {
			t.Fatalf("a concat of halves %d and %d bytes wide is %d bytes wide, want %d",
				h0.Tail().Width(), h1.Tail().Width(), got, want)
		}
		same("Concat views", wide, Concat([]*BAT{nb.Slice(0, half), nb.Slice(half, n)}))

		data := AppendMarshal(nil, nb)
		if len(data) != MarshalSize(nb) {
			t.Fatalf("encoded %d bytes, MarshalSize says %d", len(data), MarshalSize(nb))
		}
		if vec := bytes.Join(MarshalVec(nb), nil); !bytes.Equal(vec, data) {
			t.Fatalf("MarshalVec gives %d bytes, AppendMarshal %d (or other bytes)", len(vec), len(data))
		}
		got, err := UnmarshalView(data)
		if err != nil {
			t.Fatalf("UnmarshalView: %v", err)
		}
		if got.Tail().Width() != nb.Tail().Width() {
			t.Fatalf("decoded width %d, sent %d", got.Tail().Width(), nb.Tail().Width())
		}
		same("wire", wide, got)
	})
}
