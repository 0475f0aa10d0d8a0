package mal

import (
	"fmt"

	"repro/internal/bat"
)

// NewRegistry returns a registry preloaded with the standard operator
// set: the binary relational algebra over BATs, grouping/aggregation,
// scalar arithmetic, result construction, and the datacyclotron.*
// instructions of §4.1. The caller owns it and may Register more.
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
	r.Register("algebra", "kdiff", binary(func(l, rg *bat.BAT) Value { return l.Diff(rg) }))
	r.Register("algebra", "kunion", binary(func(l, rg *bat.BAT) Value { return l.Union(rg) }))
	r.Register("algebra", "kunique", unary(func(b *bat.BAT) Value { return b.UniqueT() }))
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
	// algebra.select(b, lo, hi, loIncl, hiIncl); nil bound = open side.
	r.Register("algebra", "select", func(ctx *Context, c *Call) error {
		b, err := argBAT(c.Args, 0)
		if err != nil {
			return err
		}
		lo, hi := rangeArgs(c.Args[1:])
		return c.Return(b.Select(lo, hi))
	})
	// algebra.uselect takes select's arguments and returns the
	// candidate list [head|head] of the qualifying rows. With MonetDB's
	// optional candidate argument — uselect(b, cand, lo, hi, loIncl,
	// hiIncl) — only the rows of b whose head is in cand are tested.
	r.Register("algebra", "uselect", func(ctx *Context, c *Call) error {
		b, err := argBAT(c.Args, 0)
		if err != nil {
			return err
		}
		switch len(c.Args) {
		case 5:
			lo, hi := c.bounds(1)
			return c.Return(b.USelect(lo, hi))
		case 6:
			cand, err := argBAT(c.Args, 1)
			if err != nil {
				return err
			}
			lo, hi := c.bounds(2)
			return c.Return(b.USelectCand(cand, lo, hi))
		}
		return fmt.Errorf("uselect: want 5 or 6 arguments, got %d", len(c.Args))
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
			if len(c.Args) == 0 || len(c.Args)%5 != 0 {
				return fmt.Errorf("want 5 arguments per column, got %d", len(c.Args))
			}
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
	r.Register("algebra", "topN", func(ctx *Context, c *Call) error {
		b, err := argBAT(c.Args, 0)
		if err != nil {
			return err
		}
		n := int(c.Args[1].(int64))
		desc, _ := c.Args[2].(bool)
		return c.Return(b.TopN(n, desc))
	})

	// --- group ---
	r.Register("group", "new", func(ctx *Context, c *Call) error {
		b, err := argBAT(c.Args, 0)
		if err != nil {
			return err
		}
		groups, reps := b.GroupIDs()
		return c.Return(groups, reps)
	})

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
		if len(c.Args) < 6 || len(c.Args)%5 != 1 {
			return fmt.Errorf("selectsum: want a column and 5 arguments per range, got %d", len(c.Args))
		}
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

	// --- calc (positional arithmetic) ---
	// calc.eqselect(a, b): rows of a whose tail equals b's tail at the
	// same position; implements cyclic join predicates as filters.
	r.Register("calc", "eqselect", binary(func(a, b *bat.BAT) Value { return a.EqRows(b) }))
	r.Register("calc", "mul", binary(func(a, b *bat.BAT) Value { return bat.MulIF(a, b) }))
	r.Register("calc", "add", binary(func(a, b *bat.BAT) Value { return bat.AddF(a, b) }))
	r.Register("calc", "constMinus", func(ctx *Context, c *Call) error {
		k, ok := c.Args[0].(float64)
		if !ok {
			return fmt.Errorf("constMinus: want float64, got %T", c.Args[0])
		}
		b, err := argBAT(c.Args, 1)
		if err != nil {
			return err
		}
		return c.Return(bat.ConstMinusF(k, b))
	})
	r.Register("calc", "constPlus", func(ctx *Context, c *Call) error {
		k, ok := c.Args[0].(float64)
		if !ok {
			return fmt.Errorf("constPlus: want float64, got %T", c.Args[0])
		}
		b, err := argBAT(c.Args, 1)
		if err != nil {
			return err
		}
		return c.Return(bat.ConstPlusF(k, b))
	})

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
	// sql.scalarResult(name, value) wraps a scalar into a 1-row result.
	r.Register("sql", "scalarResult", func(ctx *Context, c *Call) error {
		name, err := argStr(c.Args, 0)
		if err != nil {
			return err
		}
		if _, oid := c.Args[1].(bat.Oid); !oid {
			if col, ok := bat.Scalar(name, c.Args[1]); ok {
				return c.Return(&ResultSet{Names: []string{name}, Cols: []*bat.BAT{col}})
			}
		}
		return fmt.Errorf("scalarResult: unsupported %T", c.Args[1])
	})
}

// rangeArgs decodes the (lo, hi, loIncl, hiIncl) tail of a range
// select's argument list; a nil limit leaves that side open.
func rangeArgs(args []Value) (lo, hi *bat.Bound) {
	if args[0] != nil {
		lo = &bat.Bound{Value: args[0], Inclusive: args[2].(bool)}
	}
	if args[1] != nil {
		hi = &bat.Bound{Value: args[1], Inclusive: args[3].(bool)}
	}
	return lo, hi
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

// termArgs reads a conjunction's ranges from args[from:], five
// arguments each: column, low, high, low inclusive, high inclusive.
func termArgs(args []Value, from int) ([]bat.Term, error) {
	terms := make([]bat.Term, (len(args)-from)/5)
	for i := range terms {
		at := from + 5*i
		b, err := argBAT(args, at)
		if err != nil {
			return nil, err
		}
		lo, hi := rangeArgs(args[at+1:])
		terms[i] = bat.Term{B: b, Lo: lo, Hi: hi}
	}
	return terms, nil
}

// literalRanges decodes the ranges of a range select whose bounds are
// all literals — aggr.selectsum, algebra.uselectall, algebra.uselectmask
// and algebra.uselect — once, when its plan is bound: the terms a call
// places its columns into (Call.terms, Call.bounds), every bound shared
// by every run of the plan. It is nil for any other instruction, and for
// a range with a bound that is a variable or a flag that is not a bool
// literal, which a call decodes as it runs.
func literalRanges(in *Instr) []bat.Term {
	var at []int // where each range's four operands start
	switch n := len(in.Args); {
	case in.Module == "aggr" && in.Op == "selectsum" && n >= 6 && n%5 == 1:
		for i := 2; i < n; i += 5 {
			at = append(at, i)
		}
	case in.Module == "algebra" && (in.Op == "uselectall" || in.Op == "uselectmask") && n > 0 && n%5 == 0:
		for i := 1; i < n; i += 5 {
			at = append(at, i)
		}
	case in.Module == "algebra" && in.Op == "uselect" && (n == 5 || n == 6):
		at = []int{n - 4}
	default:
		return nil
	}
	terms := make([]bat.Term, len(at))
	for i, from := range at {
		r := in.Args[from : from+4]
		for _, a := range r {
			if !a.lit {
				return nil
			}
		}
		if _, ok := r[2].Lit.(bool); !ok {
			return nil
		}
		if _, ok := r[3].Lit.(bool); !ok {
			return nil
		}
		terms[i].Lo, terms[i].Hi = rangeArgs([]Value{r[0].Lit, r[1].Lit, r[2].Lit, r[3].Lit})
	}
	return terms
}

// terms is the conjunction of ranges in c.Args[from:], five operands
// each: column, low, high, low inclusive, high inclusive. With literal
// ranges (literalRanges) it only places the columns, into the frame's
// scratch terms; otherwise it decodes them (termArgs).
func (c *Call) terms(from int) ([]bat.Term, error) {
	if c.lits == nil {
		return termArgs(c.Args, from)
	}
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

// bounds is the range of a one-range select whose (lo, hi, loIncl,
// hiIncl) start at c.Args[at]: decoded when the plan was bound, when its
// operands are literals, else now (rangeArgs).
func (c *Call) bounds(at int) (lo, hi *bat.Bound) {
	if c.lits != nil {
		return c.lits[0].Lo, c.lits[0].Hi
	}
	return rangeArgs(c.Args[at:])
}
