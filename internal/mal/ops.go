package mal

import (
	"fmt"

	"repro/internal/bat"
)

// NewRegistry returns a registry preloaded with the standard operator
// set: the binary relational algebra over BATs, grouping/aggregation,
// result construction, and the datacyclotron.* instructions of §4.1.
// The caller owns it and may Register more.
func NewRegistry() *Registry {
	r := &Registry{}
	registerStandard(r)
	return r
}

var standard = func() *Registry {
	r := NewRegistry()
	r.shared = true
	return r
}()

// Standard returns the standard operator set as one registry built at
// start-up and shared by every caller: what a query path uses instead
// of paying NewRegistry per query. It is read-only; Register on it
// panics.
func Standard() *Registry { return standard }

func argBAT(args []Value, i int) (*bat.BAT, error) {
	b, ok := args[i].(*bat.BAT)
	if !ok {
		return nil, fmt.Errorf("arg %d: want *bat.BAT, got %T", i, args[i])
	}
	return b, nil
}

func argStr(args []Value, i int) (string, error) {
	s, ok := args[i].(string)
	if !ok {
		return "", fmt.Errorf("arg %d: want string, got %T", i, args[i])
	}
	return s, nil
}

func registerStandard(r *Registry) {
	// --- catalog ---
	r.Register("sql", "bind", func(ctx *Context, c *Call) error {
		if ctx.Catalog == nil {
			return fmt.Errorf("no catalog")
		}
		schema, err := argStr(c.Args, 0)
		if err != nil {
			return err
		}
		table, err := argStr(c.Args, 1)
		if err != nil {
			return err
		}
		column, err := argStr(c.Args, 2)
		if err != nil {
			return err
		}
		v, err := ctx.Catalog.Bind(schema, table, column)
		if err != nil {
			return err
		}
		return c.Return(v)
	})

	// --- datacyclotron hooks (§4.1) ---
	r.Register("datacyclotron", "request", func(ctx *Context, c *Call) error {
		if ctx.DC == nil {
			return fmt.Errorf("no DC runtime attached")
		}
		schema, err := argStr(c.Args, 0)
		if err != nil {
			return err
		}
		table, err := argStr(c.Args, 1)
		if err != nil {
			return err
		}
		column, err := argStr(c.Args, 2)
		if err != nil {
			return err
		}
		h, err := ctx.DC.Request(schema, table, column)
		if err != nil {
			return err
		}
		return c.Return(h)
	})
	r.Register("datacyclotron", "pin", func(ctx *Context, c *Call) error {
		if ctx.DC == nil {
			return fmt.Errorf("no DC runtime attached")
		}
		v, err := ctx.DC.Pin(c.Args[0])
		if err != nil {
			return err
		}
		return c.Return(v)
	})
	r.Register("datacyclotron", "unpin", func(ctx *Context, c *Call) error {
		if ctx.DC == nil {
			return fmt.Errorf("no DC runtime attached")
		}
		return ctx.DC.Unpin(c.Args[0])
	})

	// datacyclotron.aligned(region, handles...) runs an outlined
	// fragment-local sub-plan per fragment index (region.go).
	r.Register("datacyclotron", "aligned", aligned)

	// --- bat module ---
	r.Register("bat", "reverse", unary(func(b *bat.BAT) Value { return b.Reverse() }))
	r.Register("bat", "mirror", unary(func(b *bat.BAT) Value { return b.Mirror() }))
	// bat.fromScalar(name, v) lifts a scalar into a 1-row BAT so scalar
	// aggregates can participate in multi-column result sets.
	r.Register("bat", "fromScalar", func(ctx *Context, c *Call) error {
		name, err := argStr(c.Args, 0)
		if err != nil {
			return err
		}
		if b, ok := bat.Scalar(name, c.Args[1]); ok {
			return c.Return(b)
		}
		return fmt.Errorf("fromScalar: unsupported %T", c.Args[1])
	})

	// --- algebra ---
	r.Register("algebra", "join", binary(func(l, rg *bat.BAT) Value { return l.Join(rg) }))
	r.Register("algebra", "semijoin", binary(func(l, rg *bat.BAT) Value { return l.Semijoin(rg) }))
	r.Register("algebra", "markT", func(ctx *Context, c *Call) error {
		b, err := argBAT(c.Args, 0)
		if err != nil {
			return err
		}
		base, ok := c.Args[1].(bat.Oid)
		if !ok {
			return fmt.Errorf("markT: want oid base, got %T", c.Args[1])
		}
		return c.Return(b.MarkT(base))
	})
	r.Register("algebra", "markH", func(ctx *Context, c *Call) error {
		b, err := argBAT(c.Args, 0)
		if err != nil {
			return err
		}
		base, ok := c.Args[1].(bat.Oid)
		if !ok {
			return fmt.Errorf("markH: want oid base, got %T", c.Args[1])
		}
		return c.Return(b.MarkH(base))
	})
	// algebra.uselect(b, lo, hi, loIncl, hiIncl) returns the candidate
	// list [head|head] of the rows of b whose tail lies in the range; a
	// nil limit leaves that side open. With MonetDB's optional candidate
	// argument — uselect(b, cand, lo, hi, loIncl, hiIncl) — only the
	// rows of b whose head is in cand are tested. A range select's limits
	// are literals, decoded when its plan is bound (literalRanges).
	r.Register("algebra", "uselect", func(ctx *Context, c *Call) error {
		b, err := argBAT(c.Args, 0)
		if err != nil {
			return err
		}
		lo, hi := c.lits[0].Lo, c.lits[0].Hi
		if len(c.Args) == 5 {
			return c.Return(b.USelect(lo, hi))
		}
		cand, err := argBAT(c.Args, 1)
		if err != nil {
			return err
		}
		return c.Return(b.USelectCand(cand, lo, hi))
	})
	// algebra.uselectall(b1, lo1, hi1, loIncl1, hiIncl1, b2, …) is a
	// conjunction of ranges, five arguments per column: what
	// uselect(b1, …) chained through uselect(b2, that, …), … returns,
	// computed as one select (bat.SelectAll). algebra.uselectmask takes
	// the same arguments and returns the candidates as a *bat.Mask, its
	// bitmap drawn from the run's arena, which a region's deferred
	// fetches (Exit.Fetch), its aggr.sum(col, cand) and its aggr.count
	// read.
	for op, sel := range map[string]func(*Context, []bat.Term) Value{
		"uselectall":  func(_ *Context, t []bat.Term) Value { return bat.SelectAll(t) },
		"uselectmask": func(ctx *Context, t []bat.Term) Value { return bat.SelectMask(t, ctx.Arena) },
	} {
		sel := sel
		r.Register("algebra", op, func(ctx *Context, c *Call) error {
			terms, err := c.terms(0)
			if err != nil {
				return err
			}
			return c.Return(sel(ctx, terms))
		})
	}
	r.Register("algebra", "selectEq", func(ctx *Context, c *Call) error {
		b, err := argBAT(c.Args, 0)
		if err != nil {
			return err
		}
		return c.Return(b.SelectEq(c.Args[1]))
	})
	r.Register("algebra", "selectNe", func(ctx *Context, c *Call) error {
		b, err := argBAT(c.Args, 0)
		if err != nil {
			return err
		}
		return c.Return(b.SelectNe(c.Args[1]))
	})
	r.Register("algebra", "sort", func(ctx *Context, c *Call) error {
		b, err := argBAT(c.Args, 0)
		if err != nil {
			return err
		}
		desc, _ := c.Args[1].(bool)
		return c.Return(b.SortT(desc))
	})
	r.Register("algebra", "slice", func(ctx *Context, c *Call) error {
		b, err := argBAT(c.Args, 0)
		if err != nil {
			return err
		}
		from := int(c.Args[1].(int64))
		to := int(c.Args[2].(int64))
		if to > b.Len() {
			to = b.Len()
		}
		if from > to {
			from = to
		}
		return c.Return(b.Slice(from, to))
	})

	// --- group ---
	r.Register("group", "newpos", func(ctx *Context, c *Call) error {
		b, err := argBAT(c.Args, 0)
		if err != nil {
			return err
		}
		groups, reps := b.GroupIDsPos()
		return c.Return(groups, reps)
	})
	r.Register("group", "derive", func(ctx *Context, c *Call) error {
		g, err := argBAT(c.Args, 0)
		if err != nil {
			return err
		}
		k, err := argBAT(c.Args, 1)
		if err != nil {
			return err
		}
		refined, reps := bat.GroupDerive(g, k)
		return c.Return(refined, reps)
	})

	// group.aggregate(cand, k1, …, kn, op1, c1, …) is a GROUP BY over
	// one part of a region: the rows cand keeps (a *bat.Mask or a
	// candidate list) grouped by the tails of the key columns k1 … kn,
	// and per group each aggregate in op order — "count" takes no
	// column, "sum", "avg", "min" and "max" the column after them
	// (bat.GroupBy). Its *bat.Groups leaves the region by MergeGroups.
	// group.columns(groups) reads it out: a column per key, then one
	// per aggregate, what the representative-key joins and the
	// aggr.grouped* ops compute over whole columns.
	r.Register("group", "aggregate", func(ctx *Context, c *Call) error {
		cand, err := argCand(c.Args, 0)
		if err != nil {
			return err
		}
		i := 1
		var keys []*bat.BAT
		for ; i < len(c.Args); i++ {
			b, ok := c.Args[i].(*bat.BAT)
			if !ok {
				break
			}
			keys = append(keys, b)
		}
		outs, err := groupOuts(c.Args, i)
		if err != nil {
			return err
		}
		if len(keys) == 0 {
			return fmt.Errorf("no key column")
		}
		return c.Return(bat.GroupBy(cand, keys, outs))
	})
	// group.index(build) is the build side of a key join whose pairs are
	// grouped by the key and aggregated over the probe side alone: the
	// distinct keys of build's tail, by first row, and their
	// multiplicities (bat.NewKeyIndex), indexed once by its first probe.
	// The outer plan makes it and hands it to a region as an input.
	r.Register("group", "index", unary(func(b *bat.BAT) Value { return bat.NewKeyIndex(b) }))
	// group.probe(index, cand, key, op1, c1, …) is that join and
	// grouping over one part of the probe table: the rows cand keeps
	// joined on key's tail with the index's build rows, per build key
	// each aggregate as group.aggregate takes them (bat.KeyIndex.Probe).
	// Its partial *bat.Groups leave the region by MergeGroups, which adds
	// them slot by slot.
	r.Register("group", "probe", func(ctx *Context, c *Call) error {
		ix, ok := c.Args[0].(*bat.KeyIndex)
		if !ok {
			return fmt.Errorf("arg 0: want *bat.KeyIndex, got %T", c.Args[0])
		}
		cand, err := argCand(c.Args, 1)
		if err != nil {
			return err
		}
		key, err := argBAT(c.Args, 2)
		if err != nil {
			return err
		}
		outs, err := groupOuts(c.Args, 3)
		if err != nil {
			return err
		}
		return c.Return(ix.Probe(cand, key, outs))
	})
	r.Register("group", "columns", func(ctx *Context, c *Call) error {
		g, ok := c.Args[0].(*bat.Groups)
		if !ok {
			return fmt.Errorf("arg 0: want *bat.Groups, got %T", c.Args[0])
		}
		for _, b := range g.Columns() {
			c.Return(b)
		}
		return nil
	})

	// --- aggr ---
	// aggr.sum(col, cand) is MonetDB's candidate form, the sum of col at
	// a select's mask (bat.SumKept): aggr.sum(algebra.join(cand, col))
	// without the join. aggr.count of a mask is the rows it keeps.
	r.Register("aggr", "sum", func(ctx *Context, c *Call) error {
		b, err := argBAT(c.Args, 0)
		if err != nil {
			return err
		}
		switch len(c.Args) {
		case 1:
			return c.Return(b.Sum())
		case 2:
			m, ok := c.Args[1].(*bat.Mask)
			if !ok {
				return fmt.Errorf("arg 1: want *bat.Mask, got %T", c.Args[1])
			}
			return c.Return(bat.SumKept(b, m))
		}
		return fmt.Errorf("sum: want 1 or 2 arguments, got %d", len(c.Args))
	})
	// aggr.selectsum(col, b1, lo1, hi1, loIncl1, hiIncl1, b2, …) is a
	// select, a sum at it and its count in one: the sum of col at the
	// rows every range keeps and how many those are, what
	// aggr.sum(col, m) and aggr.count(m) return for
	// m := algebra.uselectmask(b1, …) (bat.SelectSum).
	r.Register("aggr", "selectsum", func(ctx *Context, c *Call) error {
		col, err := argBAT(c.Args, 0)
		if err != nil {
			return err
		}
		terms, err := c.terms(1)
		if err != nil {
			return err
		}
		sum, count := bat.SelectSum(col, terms, ctx.Arena)
		return c.Return(sum, count)
	})
	r.Register("aggr", "count", func(ctx *Context, c *Call) error {
		if m, ok := c.Args[0].(*bat.Mask); ok {
			return c.Return(m.Count())
		}
		b, err := argBAT(c.Args, 0)
		if err != nil {
			return err
		}
		return c.Return(b.Count())
	})
	r.Register("aggr", "min", unary(func(b *bat.BAT) Value { return b.Min() }))
	r.Register("aggr", "max", unary(func(b *bat.BAT) Value { return b.Max() }))
	r.Register("aggr", "avg", unary(func(b *bat.BAT) Value { return b.Avg() }))
	r.Register("aggr", "groupedSum", binary(func(g, v *bat.BAT) Value { return bat.GroupedSum(g, v) }))
	r.Register("aggr", "groupedCount", unary(func(g *bat.BAT) Value { return bat.GroupedCount(g) }))
	r.Register("aggr", "groupedAvg", binary(func(g, v *bat.BAT) Value { return bat.GroupedAvg(g, v) }))
	r.Register("aggr", "groupedMin", binary(func(g, v *bat.BAT) Value { return bat.GroupedMin(g, v) }))
	r.Register("aggr", "groupedMax", binary(func(g, v *bat.BAT) Value { return bat.GroupedMax(g, v) }))

	// --- calc ---
	// calc.eqselect(a, b): rows of a whose tail equals b's tail at the
	// same position; implements cyclic join predicates as filters.
	r.Register("calc", "eqselect", binary(func(a, b *bat.BAT) Value { return a.EqRows(b) }))

	// --- sql result construction ---
	// sql.resultSet(name1, col1, name2, col2, ...) heads every column
	// dense [0, n): a result set's rows are positions, whatever head the
	// plan's last operator left (a projection's is the candidate list),
	// and a dense head costs the result frame no bytes.
	r.Register("sql", "resultSet", func(ctx *Context, c *Call) error {
		if len(c.Args)%2 != 0 {
			return fmt.Errorf("resultSet: want name/column pairs")
		}
		n := len(c.Args) / 2
		rs := &ResultSet{Names: make([]string, n), Cols: make([]*bat.BAT, n)}
		for i := 0; i < n; i++ {
			name, err := argStr(c.Args, 2*i)
			if err != nil {
				return err
			}
			col, err := argBAT(c.Args, 2*i+1)
			if err != nil {
				return err
			}
			if h := col.Head(); !h.Dense() || h.Base() != 0 {
				col = col.MarkH(0) // a dense [0, n) head is kept as it is
			}
			rs.Names[i], rs.Cols[i] = name, col
		}
		for _, col := range rs.Cols {
			if col.Len() != rs.Cols[0].Len() {
				return fmt.Errorf("resultSet: misaligned columns %d vs %d", col.Len(), rs.Cols[0].Len())
			}
		}
		return c.Return(rs)
	})
}

// argCand is a region's candidates: a select's *bat.Mask or a
// candidate list.
func argCand(args []Value, i int) (*bat.Mask, error) {
	switch v := args[i].(type) {
	case *bat.Mask:
		return v, nil
	case *bat.BAT:
		return bat.ListMask(v), nil
	}
	return nil, fmt.Errorf("arg %d: want candidates, got %T", i, args[i])
}

// groupOuts reads the aggregates from args[i] on: each a name, and
// after any but "count" its column.
func groupOuts(args []Value, i int) ([]bat.GroupOut, error) {
	var outs []bat.GroupOut
	for i < len(args) {
		name, _ := args[i].(string)
		op, ok := groupOps[name]
		if !ok {
			return nil, fmt.Errorf("arg %d: want an aggregate, got %#v", i, args[i])
		}
		o := bat.GroupOut{Op: op}
		if i++; op != bat.GroupCount {
			b, err := argBAT(args, i)
			if err != nil {
				return nil, err
			}
			o.Col, i = b, i+1
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// groupOps are group.aggregate's and group.probe's aggregate names.
var groupOps = map[string]bat.GroupOp{
	"count": bat.GroupCount, "sum": bat.GroupSum, "avg": bat.GroupAvg,
	"min": bat.GroupMin, "max": bat.GroupMax,
}

func unary(f func(*bat.BAT) Value) OpFunc {
	return func(ctx *Context, c *Call) error {
		b, err := argBAT(c.Args, 0)
		if err != nil {
			return err
		}
		return c.Return(f(b))
	}
}

func binary(f func(a, b *bat.BAT) Value) OpFunc {
	return func(ctx *Context, c *Call) error {
		a, err := argBAT(c.Args, 0)
		if err != nil {
			return err
		}
		b, err := argBAT(c.Args, 1)
		if err != nil {
			return err
		}
		return c.Return(f(a, b))
	}
}

// literalRanges decodes the ranges of a range select — aggr.selectsum,
// algebra.uselectall, algebra.uselectmask and algebra.uselect — once,
// when its plan is bound: the terms a call places its columns into
// (Call.terms), every bound shared by every run of the plan. It is nil
// for any other instruction. Range limits are literals: the SQL
// front-end writes them so, and the DcOptimizer outlines no other
// select. A range select whose limits or flags are not literals, or
// whose arguments do not come in ranges, fails the bind.
func literalRanges(in *Instr) ([]bat.Term, error) {
	var at []int // where each range's four operands start
	switch n := len(in.Args); {
	case in.Module == "aggr" && in.Op == "selectsum":
		if n < 6 || n%5 != 1 {
			return nil, fmt.Errorf("want a column and 5 arguments per range, got %d", n)
		}
		for i := 2; i < n; i += 5 {
			at = append(at, i)
		}
	case in.Module == "algebra" && (in.Op == "uselectall" || in.Op == "uselectmask"):
		if n == 0 || n%5 != 0 {
			return nil, fmt.Errorf("want 5 arguments per column, got %d", n)
		}
		for i := 1; i < n; i += 5 {
			at = append(at, i)
		}
	case in.Module == "algebra" && in.Op == "uselect":
		if n != 5 && n != 6 {
			return nil, fmt.Errorf("want 5 or 6 arguments, got %d", n)
		}
		at = []int{n - 4}
	default:
		return nil, nil
	}
	terms := make([]bat.Term, len(at))
	for i, from := range at {
		r := in.Args[from : from+4]
		for _, a := range r {
			if !a.lit {
				return nil, fmt.Errorf("range limit X%d is not a literal", a.Var)
			}
		}
		loIncl, ok := r[2].Lit.(bool)
		hiIncl, ok2 := r[3].Lit.(bool)
		if !ok || !ok2 {
			return nil, fmt.Errorf("range flags %#v, %#v are not bools", r[2].Lit, r[3].Lit)
		}
		if r[0].Lit != nil {
			terms[i].Lo = &bat.Bound{Value: r[0].Lit, Inclusive: loIncl}
		}
		if r[1].Lit != nil {
			terms[i].Hi = &bat.Bound{Value: r[1].Lit, Inclusive: hiIncl}
		}
	}
	return terms, nil
}

// terms places the columns of a range select's conjunction — c.Args[from],
// c.Args[from+5], … — into the frame's copy of its literal ranges.
func (c *Call) terms(from int) ([]bat.Term, error) {
	terms := c.scratch[:len(c.lits)]
	copy(terms, c.lits)
	for i := range terms {
		b, err := argBAT(c.Args, from+5*i)
		if err != nil {
			return nil, err
		}
		terms[i].B = b
	}
	return terms, nil
}
