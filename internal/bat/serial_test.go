package bat

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

// The legacy gob serialization, kept in a test file: every wire path
// (ring hops, result frames) uses the native codec in wire.go
// (AppendMarshal/UnmarshalView), and gob Marshal/Unmarshal survive under
// their old names only as the baseline the equivalence tests and the
// codec-vs-gob benchmarks compare against.

// Snapshot is the gob-friendly wire form of a BAT, used when fragments
// travel the live storage ring.
type Snapshot struct {
	Name string
	H, T ColumnSnapshot
}

// ColumnSnapshot is the wire form of one column.
type ColumnSnapshot struct {
	Kind   Kind
	Dense  bool
	Base   Oid
	N      int
	Oids   []Oid
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Sorted bool
}

func snapCol(c *Column) ColumnSnapshot {
	return ColumnSnapshot{
		Kind: c.kind, Dense: c.dense, Base: c.base, N: c.n,
		Oids: c.oids, Ints: c.int64s(), Floats: c.floats, Strs: c.strs, Bools: c.bools,
		Sorted: c.sorted,
	}
}

func (s ColumnSnapshot) column() *Column {
	return &Column{
		kind: s.Kind, dense: s.Dense, base: s.Base, n: s.N,
		oids: s.Oids, ints: s.Ints, floats: s.Floats, strs: s.Strs, bools: s.Bools,
		sorted: s.Sorted,
	}
}

// Snapshot captures the BAT for serialization.
func (b *BAT) Snapshot() Snapshot {
	return Snapshot{Name: b.Name, H: snapCol(b.h), T: snapCol(b.t)}
}

// FromSnapshot reconstructs a BAT.
func FromSnapshot(s Snapshot) *BAT {
	return &BAT{Name: s.Name, h: s.H.column(), t: s.T.column()}
}

// Marshal gob-encodes the BAT.
func Marshal(b *BAT) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b.Snapshot()); err != nil {
		return nil, fmt.Errorf("bat: marshal: %w", err)
	}
	return buf.Bytes(), nil
}

// Unmarshal decodes a BAT produced by Marshal.
func Unmarshal(data []byte) (*BAT, error) {
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, fmt.Errorf("bat: unmarshal: %w", err)
	}
	return FromSnapshot(s), nil
}

func roundtrip(t *testing.T, b *BAT) *BAT {
	t.Helper()
	data, err := Marshal(b)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	out, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return out
}

func TestSerialRoundtripKinds(t *testing.T) {
	cases := []*BAT{
		MakeInts("ints", []int64{1, -2, 3}),
		MakeFloats("floats", []float64{1.5, -2.25}),
		MakeStrs("strs", []string{"a", "", "hello world"}),
		MakeOids("oids", []Oid{0, 5, NilOid}),
		New("bools", DenseColumn(10, 2), BoolColumn([]bool{true, false})),
		MakeInts("empty", nil),
	}
	for _, b := range cases {
		got := roundtrip(t, b)
		if got.Name != b.Name || got.Len() != b.Len() {
			t.Fatalf("%s: shape mismatch", b.Name)
		}
		for i := 0; i < b.Len(); i++ {
			if !reflect.DeepEqual(got.Head().Value(i), b.Head().Value(i)) ||
				!reflect.DeepEqual(got.Tail().Value(i), b.Tail().Value(i)) {
				t.Fatalf("%s: row %d differs", b.Name, i)
			}
		}
		if got.Head().Dense() != b.Head().Dense() || got.Head().Base() != b.Head().Base() {
			t.Fatalf("%s: dense head metadata lost", b.Name)
		}
	}
}

func TestSerialPreservesSorted(t *testing.T) {
	b := MakeInts("x", []int64{3, 1, 2}).SortT(false)
	got := roundtrip(t, b)
	if !got.Tail().Sorted() {
		t.Fatal("sorted property lost")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not a bat")); err == nil {
		t.Fatal("expected error")
	}
}

// Property: round-trip preserves arbitrary int BATs.
func TestPropertySerialRoundtrip(t *testing.T) {
	f := func(vals []int64) bool {
		b := MakeInts("p", vals)
		data, err := Marshal(b)
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil || got.Len() != b.Len() {
			return false
		}
		for i := range vals {
			if got.Tail().Int(i) != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
