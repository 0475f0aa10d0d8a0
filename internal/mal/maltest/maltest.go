// Package maltest holds what tests of the plan layer and its runtimes
// share: an in-memory fragmented Data Cyclotron runtime, and the
// comparison a result computed per fragment is held to.
package maltest

import (
	"errors"
	"math"
	"sync"

	"repro/internal/bat"
	"repro/internal/mal"
)

// FragDC is an in-memory mal.FragmentedDC over Cols (keyed
// "table.column"; the key is also the request handle). PinMap cuts the
// columns it is handed, which share one length as a table's columns do,
// at Cuts and runs the parts in Order.
type FragDC struct {
	Cols map[string]*bat.BAT
	// Cuts returns an n-row column's fragment boundaries, ascending from
	// 0 to n; equal neighbours make an empty fragment.
	Cuts func(n int) []int
	// Order returns the sequence the part indexes run in — the arrival
	// order. Nil runs them last to first.
	Order func(parts int) []int
	// Narrow stores each fragment as the ring does: through bat.Narrow,
	// once per fragment, so a region runs over narrow codes.
	Narrow bool

	mu     sync.Mutex
	narrow map[fragment]*bat.BAT
	// Calls seen, for tests that assert how a plan reached the runtime.
	Requests, Pins, Unpins, PinMaps, Parts int
}

// EveryRows cuts a column every rows rows; rows <= 0 leaves it whole,
// one fragment, as a ring with FragmentRows 0 does.
func EveryRows(rows int) func(n int) []int {
	return func(n int) []int {
		cuts := []int{0}
		for at := rows; rows > 0 && at < n; at += rows {
			cuts = append(cuts, at)
		}
		return append(cuts, n)
	}
}

func (d *FragDC) count(n *int) {
	d.mu.Lock()
	*n++
	d.mu.Unlock()
}

func (d *FragDC) Request(schema, table, column string) (mal.Value, error) {
	d.count(&d.Requests)
	return table + "." + column, nil
}

func (d *FragDC) column(h mal.Value) (*bat.BAT, error) {
	name, _ := h.(string)
	b, ok := d.Cols[name]
	if !ok {
		return nil, errors.New("BAT does not exist")
	}
	return b, nil
}

func (d *FragDC) Pin(h mal.Value) (mal.Value, error) {
	d.count(&d.Pins)
	return d.column(h)
}

func (d *FragDC) Unpin(mal.Value) error {
	d.count(&d.Unpins)
	return nil
}

// fragment is rows [from, to) of one column.
type fragment struct {
	col      *bat.BAT
	from, to int
}

// cut returns a fragment of col, narrowed once when d.Narrow is set.
func (d *FragDC) cut(f fragment) *bat.BAT {
	b := f.col.Slice(f.from, f.to)
	if !d.Narrow {
		return b
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.narrow[f] == nil {
		if d.narrow == nil {
			d.narrow = map[fragment]*bat.BAT{}
		}
		d.narrow[f] = bat.Narrow(b)
	}
	return d.narrow[f]
}

// fragPart serves one fragment index: Pin(slot) cuts that column.
type fragPart struct {
	*FragDC
	cols     []*bat.BAT
	from, to int
}

func (p fragPart) Pin(h mal.Value) (mal.Value, error) {
	p.count(&p.Pins)
	slot, ok := h.(mal.Slot)
	if !ok || int(slot) >= len(p.cols) {
		return nil, errors.New("bad slot")
	}
	return p.cut(fragment{p.cols[slot], p.from, p.to}), nil
}

func (d *FragDC) PinMap(handles []mal.Value, part func(mal.DCRuntime) (mal.Value, error)) ([]mal.Value, error) {
	d.count(&d.PinMaps)
	cols := make([]*bat.BAT, len(handles))
	for j, h := range handles {
		b, err := d.column(h)
		if err != nil {
			return nil, err
		}
		cols[j] = b
	}
	cuts := d.Cuts(cols[0].Len())
	order := make([]int, len(cuts)-1)
	for i := range order {
		order[i] = len(order) - 1 - i
	}
	if d.Order != nil {
		order = d.Order(len(order))
	}
	out := make([]mal.Value, len(order))
	for _, i := range order {
		v, err := part(fragPart{d, cols, cuts[i], cuts[i+1]})
		if err != nil {
			return nil, err
		}
		out[i] = v
		d.count(&d.Parts)
	}
	return out, nil
}

// SameRows compares a result computed per fragment with the
// whole-column reference: every cell equal, floats to 1e-9 relative —
// partial sums added in fragment order round differently from one pass
// over the column.
func SameRows(want, got [][]any) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return false
		}
		for c, w := range want[i] {
			a, isFloat := w.(float64)
			b, _ := got[i][c].(float64)
			if isFloat && math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) {
				continue
			}
			if w != got[i][c] {
				return false
			}
		}
	}
	return true
}
