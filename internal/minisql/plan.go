package minisql

import (
	"cmp"
	"fmt"

	"repro/internal/bat"
	"repro/internal/mal"
)

// Schema tells the planner which columns each table has, so unqualified
// column references can be resolved.
type Schema interface {
	// Columns returns the column names of table, or false when the
	// table does not exist.
	Columns(table string) ([]string, bool)
}

// MapSchema is the trivial in-memory Schema.
type MapSchema map[string][]string

// Columns implements Schema.
func (m MapSchema) Columns(table string) ([]string, bool) {
	cols, ok := m[table]
	return cols, ok
}

// Compile parses and plans src against schema. The emitted plan binds
// columns with sql.bind(schemaName, table, column); running it through
// dcopt.Rewrite converts it to Data Cyclotron form.
func Compile(src string, schema Schema, schemaName string) (*mal.Plan, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return PlanQuery(q, schema, schemaName)
}

// planner carries state while lowering one query to MAL.
type planner struct {
	b          *mal.Builder
	q          *Query
	schema     Schema
	schemaName string
	aliasTable map[string]string    // alias -> real table name
	binds      map[ColRef]mal.VarID // resolved col -> bind var
	bindOrder  []ColRef             // deterministic bind emission order
	bindings   map[string]mal.VarID // alias -> [pos|oid] BAT var
	bound      []string             // aliases joined so far, in order
	projected  map[projKey]mal.VarID
}

// projKey names one projection: a column fetched through one [pos|oid]
// binding of its table.
type projKey struct {
	pos mal.VarID
	col ColRef
}

// PlanQuery lowers a parsed query to a MAL plan.
func PlanQuery(q *Query, schema Schema, schemaName string) (*mal.Plan, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("minisql: no FROM tables")
	}
	p := &planner{
		b:          mal.NewBuilder("query"),
		q:          q,
		schema:     schema,
		schemaName: schemaName,
		aliasTable: map[string]string{},
		binds:      map[ColRef]mal.VarID{},
		bindings:   map[string]mal.VarID{},
		projected:  map[projKey]mal.VarID{},
	}
	for _, t := range q.From {
		if _, ok := schema.Columns(t.Name); !ok {
			return nil, fmt.Errorf("minisql: unknown table %q", t.Name)
		}
		if _, dup := p.aliasTable[t.Alias]; dup {
			return nil, fmt.Errorf("minisql: duplicate table alias %q", t.Alias)
		}
		p.aliasTable[t.Alias] = t.Name
	}
	if err := p.resolveAll(); err != nil {
		return nil, err
	}
	if err := p.plan(); err != nil {
		return nil, err
	}
	return p.b.Build()
}

// resolve fills in the table alias of an unqualified column reference.
func (p *planner) resolve(c *ColRef) error {
	if c.Table != "" {
		tbl, ok := p.aliasTable[c.Table]
		if !ok {
			return fmt.Errorf("minisql: unknown table or alias %q", c.Table)
		}
		if !hasColumn(p.schema, tbl, c.Column) {
			return fmt.Errorf("minisql: no column %q in table %q", c.Column, tbl)
		}
		return nil
	}
	var found string
	for alias, tbl := range p.aliasTable {
		if hasColumn(p.schema, tbl, c.Column) {
			if found != "" {
				return fmt.Errorf("minisql: ambiguous column %q (in %s and %s)", c.Column, found, alias)
			}
			found = alias
		}
	}
	if found == "" {
		return fmt.Errorf("minisql: unknown column %q", c.Column)
	}
	c.Table = found
	return nil
}

func hasColumn(s Schema, table, col string) bool {
	cols, ok := s.Columns(table)
	if !ok {
		return false
	}
	for _, c := range cols {
		if c == col {
			return true
		}
	}
	return false
}

func (p *planner) resolveAll() error {
	for i := range p.q.Select {
		it := &p.q.Select[i]
		if it.Star {
			continue
		}
		if err := p.resolve(&it.Col); err != nil {
			return err
		}
	}
	for i := range p.q.Where {
		w := &p.q.Where[i]
		if err := p.resolve(&w.Lhs); err != nil {
			return err
		}
		if w.RhsIsCol {
			if err := p.resolve(&w.RhsCol); err != nil {
				return err
			}
		}
	}
	for i := range p.q.GroupBy {
		if err := p.resolve(&p.q.GroupBy[i]); err != nil {
			return err
		}
	}
	return nil
}

// bind returns (emitting at most once) the sql.bind variable for c.
func (p *planner) bind(c ColRef) mal.VarID {
	if v, ok := p.binds[c]; ok {
		return v
	}
	tbl := p.aliasTable[c.Table]
	v := p.b.Emit("sql", "bind", mal.L(p.schemaName), mal.L(tbl), mal.L(c.Column))
	p.binds[c] = v
	p.bindOrder = append(p.bindOrder, c)
	return v
}

// anyColumn picks a referenced column for alias, or the first schema
// column, to seed the table's candidate list.
func (p *planner) anyColumn(alias string) ColRef {
	for _, c := range p.bindOrder {
		if c.Table == alias {
			return c
		}
	}
	cols, _ := p.schema.Columns(p.aliasTable[alias])
	return ColRef{Table: alias, Column: cols[0]}
}

// litRange is the conjunction of range predicates on one column: the
// tightest [lo, hi] they leave, a nil limit being an open side.
type litRange struct {
	lo, hi         any
	loIncl, hiIncl bool
}

// cmpLit orders two SQL literals. ok=false when they have no exact
// order: a string against a number, or an int64 too large to compare
// with a float64 without rounding.
func cmpLit(a, b any) (c int, ok bool) {
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			return cmp.Compare(x, y), true
		case float64:
			if x > -1<<53 && x < 1<<53 {
				return cmp.Compare(float64(x), y), true
			}
		}
	case float64:
		switch y := b.(type) {
		case float64:
			return cmp.Compare(x, y), true
		case int64:
			c, ok = cmpLit(y, x)
			return -c, ok
		}
	case string:
		if y, isStr := b.(string); isStr {
			return cmp.Compare(x, y), true
		}
	}
	return 0, false
}

// narrow intersects r with one more limit (isLo: a lower one). Of two
// limits on the same side the tighter survives, an exclusive one
// beating an inclusive one at the same value. It reports false, r
// unchanged, when the new limit cannot be ordered against the old.
func (r *litRange) narrow(v any, incl, isLo bool) bool {
	cur, curIncl := &r.hi, &r.hiIncl
	if isLo {
		cur, curIncl = &r.lo, &r.loIncl
	}
	if *cur == nil {
		*cur, *curIncl = v, incl
		return true
	}
	c, ok := cmpLit(v, *cur)
	if !ok {
		return false
	}
	if isLo {
		c = -c
	}
	switch {
	case c < 0: // tighter
		*cur, *curIncl = v, incl
	case c == 0:
		*curIncl = *curIncl && incl
	}
	return true
}

// and folds a range predicate into r; false (r unchanged) when it
// cannot be, and the predicate then becomes a range of its own.
func (r *litRange) and(w Predicate) bool {
	next := *r
	var ok bool
	switch {
	case w.Between:
		ok = next.narrow(w.Lo, true, true) && next.narrow(w.Hi, true, false)
	case w.Op == OpLt, w.Op == OpLe:
		ok = next.narrow(w.Rhs, w.Op == OpLe, false)
	default: // OpGt, OpGe
		ok = next.narrow(w.Rhs, w.Op == OpGe, true)
	}
	if ok {
		*r = next
	}
	return ok
}

// selection is one scan of candidates(): an equality test, or every
// range predicate on its column coalesced into one range.
type selection struct {
	col ColRef
	eq  *Predicate // the = or <> test; nil: rng
	rng litRange
}

// candidates builds the per-table candidate [oid|oid] BAT by applying
// all single-table predicates (selection push-down, §3.2). The range
// predicates on one column coalesce into a single range — `a >= x and
// a < y` scans a once, for [x, y). Two or more ranges that lead the
// table's selections in SQL order become one algebra.uselectall, the
// conjunction tested in one select; a lone leading range is an
// algebra.uselect. Any later range chains: it takes the list so far as
// its candidate argument and tests only those rows. An = or <> keeps
// its own scan, intersected with the list by algebra.semijoin.
// Contradictory limits need no special case: the kernel answers an
// empty range with an empty list.
func (p *planner) candidates(alias string) mal.VarID {
	var sels []*selection
	for i := range p.q.Where {
		w := &p.q.Where[i]
		if w.RhsIsCol || w.Lhs.Table != alias {
			continue
		}
		if !w.Between && (w.Op == OpEq || w.Op == OpNe) {
			sels = append(sels, &selection{col: w.Lhs, eq: w})
			continue
		}
		folded := false
		for _, s := range sels {
			if s.col == w.Lhs && s.eq == nil && s.rng.and(*w) {
				folded = true
				break
			}
		}
		if !folded {
			s := &selection{col: w.Lhs}
			s.rng.and(*w)
			sels = append(sels, s)
		}
	}
	var cand mal.VarID = mal.NoVar
	lead := 0
	for lead < len(sels) && sels[lead].eq == nil {
		lead++
	}
	if lead >= 2 {
		var args []mal.Arg
		for _, s := range sels[:lead] {
			args = append(args, mal.V(p.bind(s.col)),
				mal.L(s.rng.lo), mal.L(s.rng.hi), mal.L(s.rng.loIncl), mal.L(s.rng.hiIncl))
		}
		cand = p.b.Emit("algebra", "uselectall", args...)
		sels = sels[lead:]
	}
	for _, s := range sels {
		col := p.bind(s.col)
		if s.eq == nil {
			args := []mal.Arg{mal.V(col)}
			if cand != mal.NoVar {
				args = append(args, mal.V(cand))
			}
			cand = p.b.Emit("algebra", "uselect", append(args,
				mal.L(s.rng.lo), mal.L(s.rng.hi), mal.L(s.rng.loIncl), mal.L(s.rng.hiIncl))...)
			continue
		}
		op := "selectEq"
		if s.eq.Op == OpNe {
			op = "selectNe"
		}
		piece := p.b.Emit("bat", "mirror", mal.V(p.b.Emit("algebra", op, mal.V(col), mal.L(s.eq.Rhs))))
		if cand == mal.NoVar {
			cand = piece
		} else {
			cand = p.b.Emit("algebra", "semijoin", mal.V(cand), mal.V(piece))
		}
	}
	if cand == mal.NoVar {
		col := p.bind(p.anyColumn(alias))
		cand = p.b.Emit("bat", "mirror", mal.V(col))
	}
	return cand
}

func (p *planner) isBound(alias string) bool {
	_, ok := p.bindings[alias]
	return ok
}

// project returns the [pos|value] BAT of c over its table's current
// binding, emitting the positional join once per (binding, column):
// `sum(x), avg(x)` fetches x once.
func (p *planner) project(c ColRef) mal.VarID {
	k := projKey{pos: p.bindings[c.Table], col: c}
	v, ok := p.projected[k]
	if !ok {
		v = p.b.Emit("algebra", "join", mal.V(k.pos), mal.V(p.bind(c)))
		p.projected[k] = v
	}
	return v
}

// realign maps every existing binding through K ([pos|newPos] reversed),
// keeping all bound tables row-aligned after a join or filter step.
func (p *planner) realign(kr mal.VarID) {
	for _, alias := range p.bound {
		p.bindings[alias] = p.b.Emit("algebra", "join", mal.V(kr), mal.V(p.bindings[alias]))
	}
}

// plan drives the lowering: scans, joins, projection, grouping,
// ordering, limit, result construction.
func (p *planner) plan() error {
	// Pre-bind all referenced columns so requests can be issued early
	// (the DcOptimizer turns each bind into a datacyclotron.request).
	for _, it := range p.q.Select {
		if !it.Star {
			p.bind(it.Col)
		}
	}
	for _, w := range p.q.Where {
		p.bind(w.Lhs)
		if w.RhsIsCol {
			p.bind(w.RhsCol)
		}
	}
	for _, g := range p.q.GroupBy {
		p.bind(g)
	}

	// Candidate lists per table.
	cands := map[string]mal.VarID{}
	for _, t := range p.q.From {
		cands[t.Alias] = p.candidates(t.Alias)
	}

	// Seed with the first FROM table.
	first := p.q.From[0].Alias
	p.bindings[first] = cands[first]
	p.bound = []string{first}

	// Join predicates, processed greedily until all are consumed.
	type joinPred struct {
		l, r ColRef
		used bool
	}
	var joins []joinPred
	for _, w := range p.q.Where {
		if !w.RhsIsCol {
			continue
		}
		if w.Op != OpEq {
			return fmt.Errorf("minisql: only equality joins are supported, got %s", w.String())
		}
		if w.Lhs.Table == w.RhsCol.Table {
			return fmt.Errorf("minisql: self-comparison %s not supported", w.String())
		}
		joins = append(joins, joinPred{l: w.Lhs, r: w.RhsCol})
	}
	remaining := len(joins)
	for remaining > 0 {
		progressed := false
		for i := range joins {
			j := &joins[i]
			if j.used {
				continue
			}
			lb, rb := p.isBound(j.l.Table), p.isBound(j.r.Table)
			switch {
			case lb && rb:
				p.applyFilterJoin(j.l, j.r)
			case lb:
				p.applyJoin(j.l, j.r, cands[j.r.Table])
			case rb:
				p.applyJoin(j.r, j.l, cands[j.l.Table])
			default:
				continue
			}
			j.used = true
			remaining--
			progressed = true
		}
		if !progressed {
			return fmt.Errorf("minisql: disconnected join graph (cross joins not supported)")
		}
	}
	for _, t := range p.q.From {
		if !p.isBound(t.Alias) {
			if len(p.q.From) > 1 {
				return fmt.Errorf("minisql: table %q not connected by a join predicate", t.Alias)
			}
		}
	}

	hasAgg := false
	for _, it := range p.q.Select {
		if it.Agg != AggNone {
			hasAgg = true
		}
	}
	if len(p.q.GroupBy) > 0 || hasAgg {
		return p.planAggregation()
	}

	// Plain projection.
	var names []string
	var outs []mal.VarID
	for _, it := range p.q.Select {
		names = append(names, it.Name())
		outs = append(outs, p.project(it.Col))
	}
	outs = p.applyOrderLimit(names, outs, func(ref ColRef) (mal.VarID, bool) {
		for i, it := range p.q.Select {
			if matchOrderRef(ref, it) {
				return outs[i], true
			}
		}
		return 0, false
	})
	p.emitResult(names, outs)
	return nil
}

// matchOrderRef matches an ORDER BY reference against a select item by
// alias, by column name, or by qualified name.
func matchOrderRef(ref ColRef, it SelectItem) bool {
	if ref.Table == "" {
		if it.Alias != "" && ref.Column == it.Alias {
			return true
		}
		return it.Agg == AggNone && it.Col.Column == ref.Column
	}
	return it.Agg == AggNone && it.Col == ref
}

// applyJoin joins the bound side (boundCol's table) with a new table.
func (p *planner) applyJoin(boundCol, newCol ColRef, newCand mal.VarID) {
	lhsVals := p.project(boundCol)
	rhsVals := p.b.Emit("algebra", "join", mal.V(newCand), mal.V(p.bind(newCol)))
	rhsRev := p.b.Emit("bat", "reverse", mal.V(rhsVals))
	j := p.b.Emit("algebra", "join", mal.V(lhsVals), mal.V(rhsRev)) // [pos|newOid]
	k := p.b.Emit("algebra", "markT", mal.V(j), mal.L(bat.Oid(0)))  // [pos|newPos]
	kr := p.b.Emit("bat", "reverse", mal.V(k))                      // [newPos|pos]
	p.realign(kr)
	p.bindings[newCol.Table] = p.b.Emit("algebra", "markH", mal.V(j), mal.L(bat.Oid(0)))
	p.bound = append(p.bound, newCol.Table)
}

// applyFilterJoin handles a join predicate between two already-bound
// tables (a cycle in the join graph) as a positional equality filter.
func (p *planner) applyFilterJoin(l, r ColRef) {
	lv, rv := p.project(l), p.project(r)
	f := p.b.Emit("calc", "eqselect", mal.V(lv), mal.V(rv)) // [pos|val] subset
	c := p.b.Emit("bat", "mirror", mal.V(f))                // [pos|pos]
	k := p.b.Emit("algebra", "markT", mal.V(c), mal.L(bat.Oid(0)))
	kr := p.b.Emit("bat", "reverse", mal.V(k))
	p.realign(kr)
}

// planAggregation lowers GROUP BY / scalar aggregate queries.
func (p *planner) planAggregation() error {
	for _, it := range p.q.Select {
		if it.Agg == AggNone && !inGroupBy(p.q.GroupBy, it.Col) {
			return fmt.Errorf("minisql: column %s must appear in GROUP BY", it.Col)
		}
	}
	if len(p.q.GroupBy) == 0 {
		// Scalar aggregation: one row.
		var names []string
		var outs []mal.VarID
		for _, it := range p.q.Select {
			names = append(names, it.Name())
			var scalar mal.VarID
			switch {
			case it.Star:
				// Every binding has one row per result row: count(*)
				// counts the candidate list itself, fetching no column.
				scalar = p.b.Emit("aggr", "count", mal.V(p.bindings[p.q.From[0].Alias]))
			default:
				scalar = p.b.Emit("aggr", it.Agg.String(), mal.V(p.project(it.Col)))
			}
			outs = append(outs, p.b.Emit("bat", "fromScalar", mal.L(names[len(names)-1]), mal.V(scalar)))
		}
		p.emitResult(names, outs)
		return nil
	}

	// Grouped aggregation.
	keys := make([]mal.VarID, len(p.q.GroupBy))
	for i, g := range p.q.GroupBy {
		keys[i] = p.project(g)
	}
	groups, reps := p.b.Emit2("group", "newpos", mal.V(keys[0]))
	for _, k := range keys[1:] {
		groups, reps = p.b.Emit2("group", "derive", mal.V(groups), mal.V(k))
	}
	var names []string
	var outs []mal.VarID
	for _, it := range p.q.Select {
		names = append(names, it.Name())
		switch {
		case it.Agg == AggNone:
			// Representative key value per group: reps is [gid|pos],
			// key columns are [pos|val].
			idx := indexOfGroupBy(p.q.GroupBy, it.Col)
			outs = append(outs, p.b.Emit("algebra", "join", mal.V(reps), mal.V(keys[idx])))
		case it.Star:
			outs = append(outs, p.b.Emit("aggr", "groupedCount", mal.V(groups)))
		case it.Agg == AggCount:
			outs = append(outs, p.b.Emit("aggr", "groupedCount", mal.V(groups)))
		case it.Agg == AggSum:
			outs = append(outs, p.b.Emit("aggr", "groupedSum", mal.V(groups), mal.V(p.project(it.Col))))
		case it.Agg == AggAvg:
			outs = append(outs, p.b.Emit("aggr", "groupedAvg", mal.V(groups), mal.V(p.project(it.Col))))
		case it.Agg == AggMin:
			outs = append(outs, p.b.Emit("aggr", "groupedMin", mal.V(groups), mal.V(p.project(it.Col))))
		case it.Agg == AggMax:
			outs = append(outs, p.b.Emit("aggr", "groupedMax", mal.V(groups), mal.V(p.project(it.Col))))
		}
	}
	outs = p.applyOrderLimit(names, outs, func(ref ColRef) (mal.VarID, bool) {
		for i, it := range p.q.Select {
			if it.Alias != "" && ref.Table == "" && ref.Column == it.Alias {
				return outs[i], true
			}
			if it.Agg == AggNone && (it.Col == ref || (ref.Table == "" && it.Col.Column == ref.Column)) {
				return outs[i], true
			}
		}
		return 0, false
	})
	p.emitResult(names, outs)
	return nil
}

func inGroupBy(gb []ColRef, c ColRef) bool {
	for _, g := range gb {
		if g == c {
			return true
		}
	}
	return false
}

func indexOfGroupBy(gb []ColRef, c ColRef) int {
	for i, g := range gb {
		if g == c {
			return i
		}
	}
	return 0
}

// applyOrderLimit sorts all output columns by the ORDER BY key and then
// applies LIMIT, returning the rewritten output variables.
func (p *planner) applyOrderLimit(names []string, outs []mal.VarID, lookup func(ColRef) (mal.VarID, bool)) []mal.VarID {
	if p.q.Order != nil {
		if key, ok := lookup(p.q.Order.Ref); ok {
			sorted := p.b.Emit("algebra", "sort", mal.V(key), mal.L(p.q.Order.Desc))
			ord := p.b.Emit("bat", "mirror", mal.V(sorted)) // [pos|pos] in order
			for i := range outs {
				outs[i] = p.b.Emit("algebra", "join", mal.V(ord), mal.V(outs[i]))
			}
		}
	}
	if p.q.Limit >= 0 {
		for i := range outs {
			outs[i] = p.b.Emit("algebra", "slice", mal.V(outs[i]), mal.L(int64(0)), mal.L(int64(p.q.Limit)))
		}
	}
	return outs
}

func (p *planner) emitResult(names []string, outs []mal.VarID) {
	args := make([]mal.Arg, 0, 2*len(outs))
	for i := range outs {
		args = append(args, mal.L(names[i]), mal.V(outs[i]))
	}
	res := p.b.Emit("sql", "resultSet", args...)
	p.b.SetResult(res)
}
