package mal

import (
	"fmt"
	"strings"

	"repro/internal/bat"
)

// An aligned region is the part of a query that is local to a fragment:
// instructions over columns of one table whose whole-column result is
// the fragment-order concatenation — or, for an aggregate, an
// associative merge — of their results over each fragment. The
// DcOptimizer outlines such a region into a sub-plan carried by one
// datacyclotron.aligned instruction; on a FragmentedDC the sub-plan runs
// once per fragment index as the fragments arrive and only the exits
// are merged, on any other runtime it runs once over whole columns.

// Slot names the i-th column handle of a datacyclotron.aligned
// instruction inside its sub-plan: datacyclotron.pin(Slot(i)) pins
// whatever the executing part stands for — one fragment of that column,
// or all of it.
type Slot int

func (s Slot) GoString() string { return fmt.Sprintf("slot(%d)", int(s)) }

// MergeKind says how the per-part values of a region exit combine into
// the value the outer plan sees.
type MergeKind uint8

const (
	MergeConcat MergeKind = iota // BATs, concatenated in fragment order
	MergeAdd                     // aggr.sum and aggr.count partials
	MergeMin                     // aggr.min partials; nil is an empty part
	MergeMax                     // aggr.max partials; nil is an empty part
	MergeTail                    // BATs whose reader wants the tails only: dense head [0, n)
	MergeGroups                  // group.aggregate partials, merged by key value (bat.MergeGroups)
)

func (k MergeKind) String() string {
	return [...]string{"concat", "add", "min", "max", "tail", "groups"}[k]
}

// Exit is a sub-plan variable the outer plan consumes.
type Exit struct {
	Var   VarID
	Merge MergeKind
	// Fetch, when set, is the positional fetch algebra.join(Cand, Col)
	// assigning Var, left out of the sub-plan: a part runs it at a list,
	// and hands a *bat.Mask and the column to the merge (bat.FetchAll).
	Fetch *Fetch
}

// Fetch names a deferred fetch's candidates and column.
type Fetch struct{ Cand, Col VarID }

// Region is an outlined sub-plan with its exits. It is shared by every
// run of the cached outer plan and never written after NewRegion.
type Region struct {
	plan   *Plan
	exits  []Exit
	inputs []VarID
}

// NewRegion wraps sub, whose datacyclotron.pin instructions take Slot
// literals, the variables that leave it, in the order the
// datacyclotron.aligned instruction returns them, and the variables it
// reads from the outer plan, set in every part from the instruction's
// arguments after its column handles (a key index): the outer
// plan computes each once, before the region runs, and no part writes
// one.
func NewRegion(sub *Plan, exits []Exit, inputs []VarID) *Region {
	return &Region{plan: sub, exits: exits, inputs: inputs}
}

// Plan returns the sub-plan; callers must not modify it.
func (r *Region) Plan() *Plan { return r.plan }

// Exits returns the exits; callers must not modify them.
func (r *Region) Exits() []Exit { return r.exits }

// GoString prints the region the way Instr.String prints any literal.
func (r *Region) GoString() string {
	var b strings.Builder
	b.WriteString("region{\n")
	for _, in := range r.plan.Instrs {
		fmt.Fprintf(&b, "        %s;\n", in)
	}
	b.WriteString("    }")
	if len(r.inputs) > 0 {
		b.WriteString(" inputs")
		for _, v := range r.inputs {
			fmt.Fprintf(&b, " X%d", v)
		}
	}
	b.WriteString(" exits")
	for _, e := range r.exits {
		fmt.Fprintf(&b, " X%d:%s", e.Var, e.Merge)
		if f := e.Fetch; f != nil {
			fmt.Fprintf(&b, "=join(X%d,X%d)", f.Cand, f.Col)
		}
	}
	return b.String()
}

// slotDC resolves a sub-plan's Slot pins to the whole columns behind
// the instruction's handles.
type slotDC struct {
	DCRuntime
	handles []Value
}

func (d slotDC) Pin(h Value) (Value, error) {
	s, ok := h.(Slot)
	if !ok || int(s) >= len(d.handles) {
		return nil, fmt.Errorf("pin of %#v inside a region with %d columns", h, len(d.handles))
	}
	return d.DCRuntime.Pin(d.handles[s])
}

// aligned implements datacyclotron.aligned(region, handles...,
// inputs...).
func aligned(ctx *Context, c *Call) error {
	if ctx.DC == nil {
		return fmt.Errorf("no DC runtime attached")
	}
	r, ok := c.Args[0].(*Region)
	if !ok {
		return fmt.Errorf("arg 0: want *mal.Region, got %T", c.Args[0])
	}
	nh := len(c.Args) - 1 - len(r.inputs)
	if nh < 0 {
		return fmt.Errorf("region with %d inputs given %d arguments", len(r.inputs), len(c.Args)-1)
	}
	handles, inputs := c.Args[1:1+nh], c.Args[1+nh:]
	if fdc, ok := ctx.DC.(FragmentedDC); ok {
		// Parts are the parallel axis: each runs its instructions in
		// plan order, and a pin that has to wait blocks only its part.
		parts, err := fdc.PinMap(handles, func(dc DCRuntime) (Value, error) { return r.run(ctx, dc, 1, inputs) })
		if err != nil {
			return err
		}
		return r.merge(ctx, c, parts)
	}
	// Whole columns, inline: the un-outlined plan's instructions under
	// the same dataflow rules, as one part. One worker per column is all
	// the width a region has — each pin may block, and every scan hangs
	// off a pin — and each worker spared is a goroutine (and its stack
	// growth) less per query, which is what a 0.2 ms point query notices.
	part, err := r.run(ctx, slotDC{ctx.DC, handles}, min(ctx.Workers, len(handles)), inputs)
	if err != nil {
		return err
	}
	return r.merge(ctx, c, []Value{part})
}

// run executes the sub-plan once against dc, its inputs set to the
// values given, and returns its exit values in exit order (as a Value,
// so it can travel through PinMap): a deferred fetch's is its Join, or
// a bat.Fetch for the merge. It runs in a frame of the sub-plan's
// binding, which holds the part's context too.
func (r *Region) run(ctx *Context, dc DCRuntime, workers int, inputs []Value) (_ Value, err error) {
	b, err := r.plan.bind(ctx.Registry)
	if err != nil {
		return nil, err
	}
	f := b.frame()
	defer b.release(f)
	f.ctx = *ctx
	f.ctx.DC, f.ctx.Workers = dc, workers
	for i, v := range r.inputs {
		f.vals[v] = inputs[i]
	}
	if err := b.exec(&f.ctx, r.plan, f); err != nil {
		return nil, err
	}
	vals := f.vals
	defer func() { // a Join's shape panic, as execInstr reports one
		if p := recover(); p != nil {
			err = fmt.Errorf("mal: region exit: %v", p)
		}
	}()
	out := make([]Value, len(r.exits))
	for i, e := range r.exits {
		f := e.Fetch
		if f == nil {
			out[i] = vals[e.Var]
			continue
		}
		col, ok := vals[f.Col].(*bat.BAT)
		switch c := vals[f.Cand].(type) {
		case *bat.Mask:
			out[i] = bat.Fetch{Cand: c, Col: col}
		case *bat.BAT:
			if ok {
				out[i] = c.Join(col)
			}
		}
		if !ok || out[i] == nil {
			return nil, fmt.Errorf("region exit X%d: cannot fetch from %T at %T", e.Var, vals[f.Col], vals[f.Cand])
		}
	}
	return out, nil
}

// merge combines the per-part exit values, parts in fragment order, so
// the outcome does not depend on the order the fragments arrived in.
// The merged columns are drawn from the query's arena (ctx.Arena).
func (r *Region) merge(ctx *Context, c *Call, parts []Value) error {
	rows := make([][]Value, len(parts)) // per part, its exits
	for i, p := range parts {
		rows[i] = p.([]Value)
	}
	out := make([]Value, len(r.exits))
	var lists [][]*bat.BAT // the concat and tail exits, gathered together
	var at []int           // so that shared columns are copied once
	var fetches [][]bat.Fetch
	var tails []bool
	var fetchAt []int
	for e, ex := range r.exits {
		if _, ok := rows[0][e].(bat.Fetch); ok {
			parts := make([]bat.Fetch, len(rows))
			for i, row := range rows {
				parts[i] = row[e].(bat.Fetch) // one op makes every part's candidates
			}
			fetches, tails, fetchAt = append(fetches, parts), append(tails, ex.Merge == MergeTail), append(fetchAt, e)
			continue
		}
		if ex.Merge == MergeConcat || ex.Merge == MergeTail {
			frags := make([]*bat.BAT, len(rows))
			var off bat.Oid
			for i, row := range rows {
				b, ok := row[e].(*bat.BAT)
				if !ok {
					return fmt.Errorf("region exit X%d is %T, want *bat.BAT", ex.Var, row[e])
				}
				if ex.Merge == MergeTail {
					// Dense heads at the running offset fuse into one
					// dense [0, n): only the tails are gathered.
					b, off = b.MarkH(off), off+bat.Oid(b.Len())
				}
				frags[i] = b
			}
			lists, at = append(lists, frags), append(at, e)
			continue
		}
		if ex.Merge == MergeGroups {
			groups := make([]*bat.Groups, len(rows))
			for i, row := range rows {
				g, ok := row[e].(*bat.Groups)
				if !ok {
					return fmt.Errorf("region exit X%d is %T, want *bat.Groups", ex.Var, row[e])
				}
				groups[i] = g
			}
			out[e] = bat.MergeGroups(groups)
			continue
		}
		acc, err := mergeScalars(ex.Merge, rows, e)
		if err != nil {
			return fmt.Errorf("region exit X%d: %w", ex.Var, err)
		}
		out[e] = acc
	}
	for i, b := range bat.ConcatAll(lists, ctx.Arena) {
		out[at[i]] = b
	}
	for i, b := range bat.FetchAll(fetches, tails, ctx.Arena) {
		out[fetchAt[i]] = b
	}
	return c.Return(out...)
}

// mergeScalars folds exit e's partial aggregates, parts in fragment
// order. Partials that are all int64 or all float64 (nil ones aside)
// fold unboxed, the total boxed once; any other mix folds through
// mergeScalar.
func mergeScalars(kind MergeKind, rows [][]Value, e int) (Value, error) {
	switch rows[0][e].(type) {
	case int64:
		if v, ok := foldNumbers[int64](kind, rows, e); ok {
			return v, nil
		}
	case float64:
		if v, ok := foldNumbers[float64](kind, rows, e); ok {
			return v, nil
		}
	}
	acc := rows[0][e]
	for _, row := range rows[1:] {
		var err error
		if acc, err = mergeScalar(kind, acc, row[e]); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// foldNumbers is mergeScalar over exit e's partials, the first a T; ok
// is false when a later one is neither a T nor nil.
func foldNumbers[T int64 | float64](kind MergeKind, rows [][]Value, e int) (Value, bool) {
	acc := rows[0][e].(T)
	for _, row := range rows[1:] {
		switch v := row[e].(type) {
		case T:
			acc = mergeOrdered(kind, acc, v)
		case nil:
		default:
			return nil, false
		}
	}
	return acc, true
}

// mergeScalar folds one more partial aggregate into acc. A nil partial
// is an aggregate over no rows and leaves the other side unchanged.
func mergeScalar(kind MergeKind, acc, v Value) (Value, error) {
	if acc == nil {
		return v, nil
	}
	if v == nil {
		return acc, nil
	}
	switch a := acc.(type) {
	case int64:
		if b, ok := v.(int64); ok {
			return mergeOrdered(kind, a, b), nil
		}
	case float64:
		if b, ok := v.(float64); ok {
			return mergeOrdered(kind, a, b), nil
		}
	case bat.Oid:
		if b, ok := v.(bat.Oid); ok {
			return mergeOrdered(kind, a, b), nil
		}
	case string:
		if b, ok := v.(string); ok && kind != MergeAdd {
			return mergeOrdered(kind, a, b), nil
		}
	case bool:
		if b, ok := v.(bool); ok && kind != MergeAdd {
			if kind == MergeMin {
				return a && b, nil
			}
			return a || b, nil
		}
	}
	return nil, fmt.Errorf("cannot %s-merge %T with %T", kind, acc, v)
}

func mergeOrdered[T int64 | float64 | bat.Oid | string](kind MergeKind, a, b T) T {
	// Comparisons as the whole-column kernel makes them (bat.extremeOf):
	// the later value replaces the earlier only when strictly beyond it.
	switch {
	case kind == MergeAdd:
		return a + b
	case kind == MergeMin && b < a, kind == MergeMax && b > a:
		return b
	}
	return a
}
