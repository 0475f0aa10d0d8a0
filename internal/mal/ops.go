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

func one(v Value) []Value { return []Value{v} }

func registerStandard(r *Registry) {
	// --- catalog ---
	r.Register("sql", "bind", func(ctx *Context, args []Value) ([]Value, error) {
		if ctx.Catalog == nil {
			return nil, fmt.Errorf("no catalog")
		}
		schema, err := argStr(args, 0)
		if err != nil {
			return nil, err
		}
		table, err := argStr(args, 1)
		if err != nil {
			return nil, err
		}
		column, err := argStr(args, 2)
		if err != nil {
			return nil, err
		}
		v, err := ctx.Catalog.Bind(schema, table, column)
		if err != nil {
			return nil, err
		}
		return one(v), nil
	})

	// --- datacyclotron hooks (§4.1) ---
	r.Register("datacyclotron", "request", func(ctx *Context, args []Value) ([]Value, error) {
		if ctx.DC == nil {
			return nil, fmt.Errorf("no DC runtime attached")
		}
		schema, err := argStr(args, 0)
		if err != nil {
			return nil, err
		}
		table, err := argStr(args, 1)
		if err != nil {
			return nil, err
		}
		column, err := argStr(args, 2)
		if err != nil {
			return nil, err
		}
		h, err := ctx.DC.Request(schema, table, column)
		if err != nil {
			return nil, err
		}
		return one(h), nil
	})
	r.Register("datacyclotron", "pin", func(ctx *Context, args []Value) ([]Value, error) {
		if ctx.DC == nil {
			return nil, fmt.Errorf("no DC runtime attached")
		}
		v, err := ctx.DC.Pin(args[0])
		if err != nil {
			return nil, err
		}
		return one(v), nil
	})
	r.Register("datacyclotron", "unpin", func(ctx *Context, args []Value) ([]Value, error) {
		if ctx.DC == nil {
			return nil, fmt.Errorf("no DC runtime attached")
		}
		return nil, ctx.DC.Unpin(args[0])
	})

	// datacyclotron.aligned(region, handles...) runs an outlined
	// fragment-local sub-plan per fragment index (region.go).
	r.Register("datacyclotron", "aligned", aligned)

	// --- bat module ---
	r.Register("bat", "reverse", unary(func(b *bat.BAT) Value { return b.Reverse() }))
	r.Register("bat", "mirror", unary(func(b *bat.BAT) Value { return b.Mirror() }))
	// bat.fromScalar(name, v) lifts a scalar into a 1-row BAT so scalar
	// aggregates can participate in multi-column result sets.
	r.Register("bat", "fromScalar", func(ctx *Context, args []Value) ([]Value, error) {
		name, err := argStr(args, 0)
		if err != nil {
			return nil, err
		}
		switch v := args[1].(type) {
		case int64:
			return one(bat.MakeInts(name, []int64{v})), nil
		case float64:
			return one(bat.MakeFloats(name, []float64{v})), nil
		case string:
			return one(bat.MakeStrs(name, []string{v})), nil
		case bat.Oid:
			return one(bat.MakeOids(name, []bat.Oid{v})), nil
		case nil:
			return one(bat.MakeInts(name, nil)), nil
		}
		return nil, fmt.Errorf("fromScalar: unsupported %T", args[1])
	})

	// --- algebra ---
	r.Register("algebra", "join", binary(func(l, rg *bat.BAT) Value { return l.Join(rg) }))
	r.Register("algebra", "semijoin", binary(func(l, rg *bat.BAT) Value { return l.Semijoin(rg) }))
	r.Register("algebra", "kdiff", binary(func(l, rg *bat.BAT) Value { return l.Diff(rg) }))
	r.Register("algebra", "kunion", binary(func(l, rg *bat.BAT) Value { return l.Union(rg) }))
	r.Register("algebra", "kunique", unary(func(b *bat.BAT) Value { return b.UniqueT() }))
	r.Register("algebra", "markT", func(ctx *Context, args []Value) ([]Value, error) {
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		base, ok := args[1].(bat.Oid)
		if !ok {
			return nil, fmt.Errorf("markT: want oid base, got %T", args[1])
		}
		return one(b.MarkT(base)), nil
	})
	r.Register("algebra", "markH", func(ctx *Context, args []Value) ([]Value, error) {
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		base, ok := args[1].(bat.Oid)
		if !ok {
			return nil, fmt.Errorf("markH: want oid base, got %T", args[1])
		}
		return one(b.MarkH(base)), nil
	})
	// algebra.select(b, lo, hi, loIncl, hiIncl); nil bound = open side.
	r.Register("algebra", "select", func(ctx *Context, args []Value) ([]Value, error) {
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		lo, hi := rangeArgs(args[1:])
		return one(b.Select(lo, hi)), nil
	})
	// algebra.uselect takes select's arguments and returns the
	// candidate list [head|head] of the qualifying rows. With MonetDB's
	// optional candidate argument — uselect(b, cand, lo, hi, loIncl,
	// hiIncl) — only the rows of b whose head is in cand are tested.
	r.Register("algebra", "uselect", func(ctx *Context, args []Value) ([]Value, error) {
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		switch len(args) {
		case 5:
			lo, hi := rangeArgs(args[1:])
			return one(b.USelect(lo, hi)), nil
		case 6:
			cand, err := argBAT(args, 1)
			if err != nil {
				return nil, err
			}
			lo, hi := rangeArgs(args[2:])
			return one(b.USelectCand(cand, lo, hi)), nil
		}
		return nil, fmt.Errorf("uselect: want 5 or 6 arguments, got %d", len(args))
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
		r.Register("algebra", op, func(ctx *Context, args []Value) ([]Value, error) {
			if len(args) == 0 || len(args)%5 != 0 {
				return nil, fmt.Errorf("want 5 arguments per column, got %d", len(args))
			}
			terms, err := termArgs(args, 0)
			if err != nil {
				return nil, err
			}
			return one(sel(ctx, terms)), nil
		})
	}
	r.Register("algebra", "selectEq", func(ctx *Context, args []Value) ([]Value, error) {
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		return one(b.SelectEq(args[1])), nil
	})
	r.Register("algebra", "selectNe", func(ctx *Context, args []Value) ([]Value, error) {
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		return one(b.SelectNe(args[1])), nil
	})
	r.Register("algebra", "sort", func(ctx *Context, args []Value) ([]Value, error) {
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		desc, _ := args[1].(bool)
		return one(b.SortT(desc)), nil
	})
	r.Register("algebra", "slice", func(ctx *Context, args []Value) ([]Value, error) {
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		from := int(args[1].(int64))
		to := int(args[2].(int64))
		if to > b.Len() {
			to = b.Len()
		}
		if from > to {
			from = to
		}
		return one(b.Slice(from, to)), nil
	})
	r.Register("algebra", "topN", func(ctx *Context, args []Value) ([]Value, error) {
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		n := int(args[1].(int64))
		desc, _ := args[2].(bool)
		return one(b.TopN(n, desc)), nil
	})

	// --- group ---
	r.Register("group", "new", func(ctx *Context, args []Value) ([]Value, error) {
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		groups, reps := b.GroupIDs()
		return []Value{groups, reps}, nil
	})

	r.Register("group", "newpos", func(ctx *Context, args []Value) ([]Value, error) {
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		groups, reps := b.GroupIDsPos()
		return []Value{groups, reps}, nil
	})
	r.Register("group", "derive", func(ctx *Context, args []Value) ([]Value, error) {
		g, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		k, err := argBAT(args, 1)
		if err != nil {
			return nil, err
		}
		refined, reps := bat.GroupDerive(g, k)
		return []Value{refined, reps}, nil
	})

	// --- aggr ---
	// aggr.sum(col, cand) is MonetDB's candidate form, the sum of col at
	// a select's mask (bat.SumKept): aggr.sum(algebra.join(cand, col))
	// without the join. aggr.count of a mask is the rows it keeps.
	r.Register("aggr", "sum", func(ctx *Context, args []Value) ([]Value, error) {
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		switch len(args) {
		case 1:
			return one(b.Sum()), nil
		case 2:
			m, ok := args[1].(*bat.Mask)
			if !ok {
				return nil, fmt.Errorf("arg 1: want *bat.Mask, got %T", args[1])
			}
			return one(bat.SumKept(b, m)), nil
		}
		return nil, fmt.Errorf("sum: want 1 or 2 arguments, got %d", len(args))
	})
	// aggr.selectsum(col, b1, lo1, hi1, loIncl1, hiIncl1, b2, …) is a
	// select, a sum at it and its count in one: the sum of col at the
	// rows every range keeps and how many those are, what
	// aggr.sum(col, m) and aggr.count(m) return for
	// m := algebra.uselectmask(b1, …) (bat.SelectSum).
	r.Register("aggr", "selectsum", func(ctx *Context, args []Value) ([]Value, error) {
		if len(args) < 6 || len(args)%5 != 1 {
			return nil, fmt.Errorf("selectsum: want a column and 5 arguments per range, got %d", len(args))
		}
		col, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		terms, err := termArgs(args, 1)
		if err != nil {
			return nil, err
		}
		sum, count := bat.SelectSum(col, terms, ctx.Arena)
		return []Value{sum, count}, nil
	})
	r.Register("aggr", "count", func(ctx *Context, args []Value) ([]Value, error) {
		if m, ok := args[0].(*bat.Mask); ok {
			return one(m.Count()), nil
		}
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		return one(b.Count()), nil
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
	r.Register("calc", "constMinus", func(ctx *Context, args []Value) ([]Value, error) {
		c, ok := args[0].(float64)
		if !ok {
			return nil, fmt.Errorf("constMinus: want float64, got %T", args[0])
		}
		b, err := argBAT(args, 1)
		if err != nil {
			return nil, err
		}
		return one(bat.ConstMinusF(c, b)), nil
	})
	r.Register("calc", "constPlus", func(ctx *Context, args []Value) ([]Value, error) {
		c, ok := args[0].(float64)
		if !ok {
			return nil, fmt.Errorf("constPlus: want float64, got %T", args[0])
		}
		b, err := argBAT(args, 1)
		if err != nil {
			return nil, err
		}
		return one(bat.ConstPlusF(c, b)), nil
	})

	// --- sql result construction ---
	// sql.resultSet(name1, col1, name2, col2, ...) heads every column
	// dense [0, n): a result set's rows are positions, whatever head the
	// plan's last operator left (a projection's is the candidate list),
	// and a dense head costs the result frame no bytes.
	r.Register("sql", "resultSet", func(ctx *Context, args []Value) ([]Value, error) {
		if len(args)%2 != 0 {
			return nil, fmt.Errorf("resultSet: want name/column pairs")
		}
		rs := &ResultSet{}
		for i := 0; i < len(args); i += 2 {
			name, err := argStr(args, i)
			if err != nil {
				return nil, err
			}
			col, err := argBAT(args, i+1)
			if err != nil {
				return nil, err
			}
			rs.Names = append(rs.Names, name)
			rs.Cols = append(rs.Cols, col.MarkH(0))
		}
		for _, c := range rs.Cols {
			if c.Len() != rs.Cols[0].Len() {
				return nil, fmt.Errorf("resultSet: misaligned columns %d vs %d", c.Len(), rs.Cols[0].Len())
			}
		}
		return one(rs), nil
	})
	// sql.scalarResult(name, value) wraps a scalar into a 1-row result.
	r.Register("sql", "scalarResult", func(ctx *Context, args []Value) ([]Value, error) {
		name, err := argStr(args, 0)
		if err != nil {
			return nil, err
		}
		var col *bat.BAT
		switch v := args[1].(type) {
		case int64:
			col = bat.MakeInts(name, []int64{v})
		case float64:
			col = bat.MakeFloats(name, []float64{v})
		case string:
			col = bat.MakeStrs(name, []string{v})
		case nil:
			col = bat.MakeInts(name, nil)
		default:
			return nil, fmt.Errorf("scalarResult: unsupported %T", args[1])
		}
		return one(&ResultSet{Names: []string{name}, Cols: []*bat.BAT{col}}), nil
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
	return func(ctx *Context, args []Value) ([]Value, error) {
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		return one(f(b)), nil
	}
}

func binary(f func(a, b *bat.BAT) Value) OpFunc {
	return func(ctx *Context, args []Value) ([]Value, error) {
		a, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		b, err := argBAT(args, 1)
		if err != nil {
			return nil, err
		}
		return one(f(a, b)), nil
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
