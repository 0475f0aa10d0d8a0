package bat

import (
	"testing"
	"unsafe"
)

// arenaFetch merges a concat fetch exit over two 100-row fragments of
// 1-byte codes into a: the rows below 25, the masks' bitmaps, head and
// tail drawn from it.
func arenaFetch(t *testing.T, a *Arena) (*BAT, []*Mask) {
	t.Helper()
	var parts []Fetch
	var masks []*Mask
	for f := 0; f < 2; f++ {
		base := Oid(100 * f)
		vals := make([]int64, 100)
		for i := range vals {
			vals[i] = int64(1 + (i*7+f)%50)
		}
		col := Narrow(New("v", DenseColumn(base, 100), IntColumn(vals)))
		m := SelectMask([]Term{{B: col, Hi: &Bound{Value: int64(25)}}}, a)
		parts = append(parts, Fetch{Cand: m, Col: col})
		masks = append(masks, m)
	}
	b := FetchAll([][]Fetch{parts}, []bool{false}, a)[0]
	if b.t.narrow == nil || b.h.oids == nil || b.Len() == 0 {
		t.Fatalf("the merge took the definition: %d rows, narrow tail %v, OID head %v", b.Len(), b.t.narrow != nil, b.h.oids != nil)
	}
	for i := 0; i < b.Len(); i++ {
		if v := b.t.Int(i); v >= 25 || b.h.Oid(i) >= 200 {
			t.Fatalf("row %d is [%d|%d], want an OID below 200 and a value below 25", i, b.h.Oid(i), v)
		}
	}
	return b, masks
}

// TestArenaReleasePoisons: a column read after its arena's Release
// reads the poison, in its codes and in its head's OIDs, and so does a
// mask's bitmap.
func TestArenaReleasePoisons(t *testing.T) {
	var a Arena
	b, masks := arenaFetch(t, &a)
	a.Release()
	codes := b.t.narrow.(narrowInts[uint8]).v
	for i, c := range codes {
		if c != poison {
			t.Fatalf("code %d reads %#x after Release, want the poison %#x", i, c, poison)
		}
	}
	for i, o := range b.h.oids {
		if o != ^Oid(0)/0xff*poison {
			t.Fatalf("OID %d reads %#x after Release, want the poison", i, o)
		}
	}
	for k, m := range masks {
		if m.rej == nil {
			t.Fatalf("mask %d holds a list, want a bitmap", k)
		}
		for i, w := range m.rej {
			if w != ^uint64(0)/0xff*poison {
				t.Fatalf("mask %d: bitmap word %d reads %#x after Release, want the poison", k, i, w)
			}
		}
	}
}

// TestArenaReleaseTwiceIsNoOp: a second Release puts nothing back, so
// the next two draws of the same size are two buffers, not one handed
// out twice.
func TestArenaReleaseTwiceIsNoOp(t *testing.T) {
	var a Arena
	b, _ := arenaFetch(t, &a)
	a.Release()
	a.Release()
	var next Arena
	defer next.Release()
	n := b.Len()
	x, y := draw[uint8](&next, n), draw[uint8](&next, n)
	if unsafe.SliceData(x) == unsafe.SliceData(y) {
		t.Fatal("two draws of one size share a buffer: the second Release put it back again")
	}
	o, p := draw[Oid](&next, n+2), draw[Oid](&next, n+2)
	if unsafe.SliceData(o) == unsafe.SliceData(p) {
		t.Fatal("two OID draws share a buffer: the second Release put it back again")
	}
	if len(x) != n || cap(x) != n || len(o) != n+2 {
		t.Fatalf("draws of %d codes and %d OIDs came back %d (cap %d) and %d long", n, n+2, len(x), cap(x), len(o))
	}
}
