package dcopt

import (
	"slices"

	"repro/internal/bat"
	"repro/internal/mal"
)

// Fragments of one table's columns cover the same row ranges, and a
// fragment's head holds its rows' global OIDs. An instruction is
// fragment-local when running it on fragment i of its inputs, for every
// i, and concatenating the results in fragment order gives what it
// returns on the whole columns. That holds for every operator below
// because each keeps its output's head inside the head of its first
// input: rows of fragment i only ever meet rows of fragment i.

// class is what a fragment-local value is, as far as the next operator
// needs to know.
type class uint8

const (
	none   class = iota
	column       // a bound column: [dense OIDs | values]
	cand         // a candidate list [OIDs | the same OIDs], a subset of the fragment's
	vals         // [a subset of the fragment's OIDs | values]
	scalar       // an aggregate: leaves the region, merged across fragments
)

// aggregates are the region exits that merge instead of concatenating.
var aggregates = map[string]mal.MergeKind{
	"aggr.sum":   mal.MergeAdd,
	"aggr.count": mal.MergeAdd,
	"aggr.min":   mal.MergeMin,
	"aggr.max":   mal.MergeMax,
}

// local reports the class of in's result when in is fragment-local
// given the classes of its arguments, none otherwise.
func local(in mal.Instr, of func(mal.Arg) class) class {
	if len(in.Ret) != 1 || len(in.Args) == 0 {
		return none
	}
	a0 := of(in.Args[0])
	switch in.Name() {
	case "algebra.selectEq", "algebra.selectNe", "algebra.uselect":
		// A scan of a column; the limits are constants. uselect's
		// candidate form tests the column at a candidate list, whose
		// OIDs are this fragment's own.
		rest := in.Args[1:]
		if in.Op == "uselect" && len(rest) == 5 {
			if of(rest[0]) != cand {
				return none
			}
			rest = rest[1:]
		}
		for _, a := range rest {
			if !a.IsLit() {
				return none
			}
		}
		if a0 != column {
			return none
		}
		if in.Op == "uselect" {
			return cand
		}
		return vals
	case "algebra.uselectall":
		// A conjunction of scans, five arguments per column: every
		// column is bound, every limit a constant.
		if len(in.Args)%5 != 0 {
			return none
		}
		for i, a := range in.Args {
			if (i%5 == 0 && of(a) != column) || (i%5 != 0 && !a.IsLit()) {
				return none
			}
		}
		return cand
	case "bat.mirror":
		if len(in.Args) == 1 && a0 != none {
			return cand
		}
	case "algebra.semijoin":
		// Rows of the left whose head is among the right's heads: both
		// sides hold OIDs of this fragment only, so rows the other
		// fragments contributed could not match.
		if len(in.Args) == 2 && a0 != none && of(in.Args[1]) != none {
			if a0 == cand {
				return cand
			}
			return vals
		}
	case "algebra.join":
		// The positional fetch: a candidate's tail is an OID of this
		// fragment, the column's head covers exactly those.
		if len(in.Args) == 2 && a0 == cand && of(in.Args[1]) == column {
			return vals
		}
	default:
		if _, ok := aggregates[in.Name()]; ok && len(in.Args) == 1 && a0 != none {
			return scalar
		}
	}
	return none
}

// region is one table's fragment-local instructions.
type region struct {
	table   string
	members []int       // instruction indexes, in plan order
	slots   []mal.VarID // the bound columns it pins, in first-use order
	exits   []mal.Exit  // results the outer plan consumes
	fetches []int       // members left to the exits they assign (mal.Exit.Fetch)
	masks   []int       // selects that answer a bitmap (algebra.uselectmask)
	folds   map[int]int // sums that read a mask themselves: the sum → the fetch it reads
	fused   map[int]fusion
	groups  []*grouping // GROUP BYs moved in, each in place of its fetches
	inputs  []mal.VarID // the key indexes its probes read (grouping.ix)
	at      int         // where it stands: its first member, or after its inputs are built
}

// fusion is what a mask fuses with into aggr.selectsum: the one folded
// sum that reads it and its count, -1 when it has none.
type fusion struct{ sum, count int }

// grouping is a GROUP BY whose keys and aggregated columns are all
// positional fetches at one region's candidates. It moves into the
// region as group.aggregate, which stands where the last of those
// fetches stood and replaces them all, and leaves it by MergeGroups;
// group.columns reads the merged groups out where group.newpos stood,
// in place of the grouping, the representative-key joins and the
// aggr.grouped* calls (its outer instructions).
//
// A probe (probeAt) is a grouping too: a key join grouped by its key
// and aggregated over the probe table alone. Its outer instructions
// are the join's, and group.probe stands in the probe table's region
// where the fetch of its key stood; the outer plan makes the key index
// it reads where the join stood.
type grouping struct {
	op      string      // group.aggregate or group.probe
	cand    mal.Arg     // the candidates whose rows it groups
	args    []mal.Arg   // the op's: a probe's index, the candidates, the key columns, then each aggregate's name and column
	fetches []int       // the fetches it replaces, by instruction
	last    int         // the last of them
	at      int         // group.newpos
	outer   []int       // the outer instructions it replaces
	ret     []mal.VarID // group.columns' results, keys first; NoVar: a key nothing reads
	v       mal.VarID   // its exit
	// A probe's key index: ix := group.index(build), where the join
	// stood (indexAt).
	build   mal.Arg
	indexAt int
	ix      mal.VarID
}

// groupedOps are the aggregates group.aggregate computes, by the outer
// op it replaces.
var groupedOps = map[string]string{
	"aggr.groupedCount": "count", "aggr.groupedSum": "sum", "aggr.groupedAvg": "avg",
	"aggr.groupedMin": "min", "aggr.groupedMax": "max",
}

func isVar(a mal.Arg, v mal.VarID) bool { return !a.IsLit() && a.Var == v }

// readOut sets what reads out a grouping by keys, whose group ids and
// representatives are gids and reps: at most one representative-key
// join(reps, key) per key, whose result is that key's column, and the
// aggr.grouped* calls over gids, each an aggregate's name and, but for
// a count, the column it reads (aggs). It is false when anything else
// reads either, or the plan's result is one of them.
func (g *grouping) readOut(p *mal.Plan, gids, reps mal.VarID, keys []mal.Arg, readers [][]int) (aggs []mal.Arg, ok bool) {
	if p.Result == gids || p.Result == reps {
		return nil, false
	}
	g.ret = make([]mal.VarID, len(keys))
	for k := range g.ret {
		g.ret[k] = mal.NoVar
	}
	for _, r := range readers[reps] {
		j := p.Instrs[r]
		if j.Name() != "algebra.join" || len(j.Args) != 2 || !isVar(j.Args[0], reps) || j.Args[1].IsLit() {
			return nil, false
		}
		k := slices.IndexFunc(keys, func(a mal.Arg) bool { return isVar(a, j.Args[1].Var) })
		if k < 0 || g.ret[k] != mal.NoVar {
			return nil, false
		}
		g.ret[k], g.outer = j.Ret[0], append(g.outer, r)
	}
	for _, r := range readers[gids] {
		j := p.Instrs[r]
		op, ok := groupedOps[j.Name()]
		arity := 2
		if op == "count" {
			arity = 1
		}
		if !ok || len(j.Ret) != 1 || len(j.Args) != arity || !isVar(j.Args[0], gids) {
			return nil, false
		}
		aggs = append(aggs, mal.L(op))
		if op != "count" {
			if isVar(j.Args[1], gids) {
				return nil, false
			}
			aggs = append(aggs, j.Args[1])
		}
		g.ret, g.outer = append(g.ret, j.Ret[0]), append(g.outer, r)
	}
	return aggs, true
}

// groupingAt is the grouping whose group.newpos is instruction i, nil
// when i is none or the grouping does not move: its group ids and
// representatives must be read by its derives and readOut's readers
// alone, and its keys and values must be fetches at the same
// candidates (fetchOf) that nothing else reads. readers lists each
// variable's reading instructions.
func groupingAt(p *mal.Plan, i int, readers [][]int, fetchOf func(mal.Arg) int) *grouping {
	in := p.Instrs[i]
	if in.Name() != "group.newpos" || len(in.Args) != 1 || len(in.Ret) != 2 {
		return nil
	}
	g := &grouping{op: "aggregate", at: i, outer: []int{i}}
	keys := []mal.Arg{in.Args[0]}
	gids, reps := in.Ret[0], in.Ret[1]
	for rs := readers[gids]; len(rs) == 1 && len(readers[reps]) == 0; rs = readers[gids] {
		d := p.Instrs[rs[0]]
		if d.Name() != "group.derive" || len(d.Args) != 2 || len(d.Ret) != 2 || !isVar(d.Args[0], gids) || isVar(d.Args[1], gids) {
			break
		}
		keys, g.outer = append(keys, d.Args[1]), append(g.outer, rs[0])
		gids, reps = d.Ret[0], d.Ret[1]
	}
	aggs, ok := g.readOut(p, gids, reps, keys, readers)
	if !ok {
		return nil
	}
	values := slices.Clone(keys)
	for _, a := range aggs {
		if !a.IsLit() {
			values = append(values, a)
		}
	}
	// Every key and value is a fetch at the same candidates, read by
	// the grouping alone.
	col := func(a mal.Arg) mal.Arg { return p.Instrs[fetchOf(a)].Args[1] }
	for _, a := range values {
		f := fetchOf(a)
		if f < 0 || p.Result == a.Var {
			return nil
		}
		if cand := p.Instrs[f].Args[0]; len(g.args) == 0 {
			g.cand, g.args = cand, []mal.Arg{cand}
		} else if cand != g.cand {
			return nil
		}
		for _, r := range readers[a.Var] {
			if !slices.Contains(g.outer, r) {
				return nil
			}
		}
		if !slices.Contains(g.fetches, f) {
			g.fetches = append(g.fetches, f)
			g.last = max(g.last, f)
		}
	}
	for _, a := range keys {
		g.args = append(g.args, col(a))
	}
	for _, a := range aggs {
		if !a.IsLit() {
			a = col(a)
		}
		g.args = append(g.args, a)
	}
	return g
}

// probeAt is the probe whose group.newpos is instruction i: a grouping
// by the key of a join, every aggregate a count, a sum or an average
// over columns of the probe table T alone — the eager aggregation of
// bat.KeyIndex. It matches the chain
// minisql's applyJoin and a grouping by the join key leave, where BL is
// the bound tables' binding, kc their key column and cand T's
// candidates:
//
//	LV := join(BL, kc)                   the build: the key at each bound row
//	RV := join(cand, T.k)                T's key at its candidates
//	J := join(LV, reverse(RV))           the pairs, [pos | T's OID]
//	KR := reverse(markT(J, 0))           realigns the bound tables …
//	K := join(join(KR, BL), kc)          … so that K is the key at each pair
//	G, R := group.newpos(K)
//	aggr.grouped*(G, join(markH(J, 0), T.c)), join(R, K)
//
// Every step must be read by the next alone — a realignment of another
// table must have been dropped as dead — and LV stays. nil when i is no
// such grouping. by is the instruction assigning a variable (-1: none),
// tableOf the table of a bound column ("": not one).
func probeAt(p *mal.Plan, i int, readers [][]int, by func(mal.Arg) int, tableOf func(mal.Arg) string) *grouping {
	in := p.Instrs[i]
	if in.Name() != "group.newpos" || len(in.Args) != 1 || len(in.Ret) != 2 {
		return nil
	}
	g := &grouping{op: "probe", at: i, outer: []int{i}}
	// step is the arguments of the instruction assigning a, when it is
	// op with n arguments and one result, and marks it replaced.
	step := func(a mal.Arg, op string, n int) []mal.Arg {
		j := by(a)
		if j < 0 || p.Instrs[j].Name() != op || len(p.Instrs[j].Args) != n || len(p.Instrs[j].Ret) != 1 {
			return nil
		}
		g.outer = append(g.outer, j)
		return p.Instrs[j].Args
	}
	isZero := func(a mal.Arg) bool { return a.IsLit() && a.Lit == bat.Oid(0) }
	k := step(in.Args[0], "algebra.join", 2)
	if k == nil || tableOf(k[1]) == "" {
		return nil
	}
	bl := step(k[0], "algebra.join", 2)
	if bl == nil {
		return nil
	}
	mt := step(bl[0], "bat.reverse", 1)
	if mt == nil {
		return nil
	}
	j := step(mt[0], "algebra.markT", 2)
	if j == nil || !isZero(j[1]) {
		return nil
	}
	g.indexAt = by(j[0])
	lr := step(j[0], "algebra.join", 2)
	if lr == nil || by(lr[0]) < 0 {
		return nil
	}
	if lv := p.Instrs[by(lr[0])]; lv.Name() != "algebra.join" || !slices.Equal(lv.Args, []mal.Arg{bl[1], k[1]}) {
		return nil
	}
	rv := step(lr[1], "bat.reverse", 1)
	if rv == nil || by(rv[0]) < 0 {
		return nil
	}
	g.last = by(rv[0])
	fetch := p.Instrs[g.last]
	table := tableOf(fetch.Args[1])
	if fetch.Name() != "algebra.join" || len(fetch.Args) != 2 || table == "" || table == tableOf(k[1]) {
		return nil
	}
	g.fetches, g.cand, g.build = []int{g.last}, fetch.Args[0], lr[0]
	aggs, ok := g.readOut(p, in.Ret[0], in.Ret[1], in.Args[:1], readers)
	if !ok {
		return nil
	}
	// Each aggregate is a count, a sum or an average, over a fetch of
	// one of T's columns at T's rows of the pairs. The index comes
	// first: g.ix, once it has a variable.
	g.args = []mal.Arg{{}, g.cand, fetch.Args[1]}
	for _, a := range aggs {
		if a.IsLit() && (a.Lit == "min" || a.Lit == "max") {
			return nil
		}
		if !a.IsLit() {
			c := step(a, "algebra.join", 2)
			if c == nil || tableOf(c[1]) != table {
				return nil
			}
			if bt := step(c[0], "algebra.markH", 2); bt == nil || bt[0] != j[0] || !isZero(bt[1]) {
				return nil
			}
			a = c[1]
		}
		g.args = append(g.args, a)
	}
	slices.Sort(g.outer)
	g.outer = slices.Compact(g.outer)
	// Nothing but the chain reads what it replaces: only the grouping's
	// outputs (g.ret) and the build leave it.
	for _, j := range append(g.outer, g.last) {
		for _, v := range p.Instrs[j].Ret {
			if slices.Contains(g.ret, v) {
				continue
			}
			if v == p.Result {
				return nil
			}
			for _, r := range readers[v] {
				if !slices.Contains(g.outer, r) {
					return nil
				}
			}
		}
	}
	return g
}

// outline finds the maximal fragment-local region of every table in p
// and returns, per instruction, the region that takes it (nil: the
// instruction stays in the outer plan), the grouping that replaces it
// (nil: none does), and the first variable past the groupings' exits
// and the probes' indexes. bindAt locates each bound column's sql.bind. A
// bound column is pinned in one place only, so a column some outer
// instruction reads whole keeps its readers out of the region, and so,
// in turn, what depends on them.
func outline(p *mal.Plan, bindAt []int) (regionOf []*region, groupOf []*grouping, nvars int) {
	type value struct {
		class class
		table string // columns of different tables never share a region
		by    int    // producing instruction; -1 for a bound column
	}
	vars := make([]value, p.NVars)
	for x, at := range bindAt {
		if at < 0 {
			continue
		}
		// The table behind a bound column, when its bind names it in
		// literals; any other bind stays a whole-column pin.
		if args := p.Instrs[at].Args; len(args) == 3 && args[0].IsLit() && args[1].IsLit() {
			schema, ok1 := args[0].Lit.(string)
			table, ok2 := args[1].Lit.(string)
			if ok1 && ok2 {
				vars[x] = value{column, schema + "." + table, -1}
			}
		}
	}
	classOf := func(a mal.Arg) class {
		if a.IsLit() {
			return none
		}
		return vars[a.Var].class
	}
	member := make([]bool, len(p.Instrs))
	for i, in := range p.Instrs {
		c := local(in, classOf)
		if c == none {
			continue
		}
		table, mixed := "", false
		for _, a := range in.Args {
			if classOf(a) != none {
				mixed = mixed || (table != "" && vars[a.Var].table != table)
				table = vars[a.Var].table
			}
		}
		if !mixed {
			member[i] = true
			vars[in.Ret[0]] = value{c, table, i}
		}
	}

	readers := make([][]int, p.NVars)
	by := make([]int, p.NVars) // the instruction assigning each variable
	for i, in := range p.Instrs {
		for _, a := range in.Args {
			if !a.IsLit() {
				readers[a.Var] = append(readers[a.Var], i)
			}
		}
		for _, v := range in.Ret {
			by[v] = i + 1 // 0: none
		}
	}
	byOf := func(a mal.Arg) int {
		if a.IsLit() {
			return -1
		}
		return by[a.Var] - 1
	}
	tableOf := func(a mal.Arg) string {
		if classOf(a) != column {
			return ""
		}
		return vars[a.Var].table
	}
	// A grouping by a join's key over the probe side alone becomes a
	// probe in the probe table's region: what the join's chain reads is
	// not read outside.
	groupOf = make([]*grouping, len(p.Instrs))
	var groupings []*grouping
	for i := range p.Instrs {
		if g := probeAt(p, i, readers, byOf, tableOf); g != nil {
			groupings = append(groupings, g)
			for _, j := range g.outer {
				groupOf[j] = g
			}
		}
	}

	// Drop members until every column a member pins is read by members
	// only and every member's inputs are still produced by members.
	outside := make([]bool, p.NVars) // read by the outer plan
	// A value only sql.resultSet reads leaves by its tail: the result set
	// heads every column dense [0, n) anyway.
	headRead := make([]bool, p.NVars)
	readOutside := func() {
		clear(outside)
		clear(headRead)
		for i, in := range p.Instrs {
			for _, a := range in.Args {
				if !member[i] && groupOf[i] == nil && !a.IsLit() {
					outside[a.Var] = true
					headRead[a.Var] = headRead[a.Var] || in.Name() != "sql.resultSet"
				}
			}
		}
		// A probe's index reads its build's tail where the join stood.
		for _, g := range groupings {
			if g.op == "probe" && groupOf[g.at] == g {
				outside[g.build.Var] = true
			}
		}
	}
	settle := func() {
		for changed := true; changed; {
			changed = false
			readOutside()
			for i, in := range p.Instrs {
				for _, a := range in.Args {
					if !member[i] || a.IsLit() {
						continue
					}
					v := vars[a.Var]
					if (v.class == column && outside[a.Var]) || (v.by >= 0 && !member[v.by]) {
						member[i], changed = false, true
					}
				}
			}
		}
	}
	// A probe whose key fetch left its region is none: its chain is read
	// outside after all, which may drop more members.
	for n := -1; n != len(groupings); {
		n = len(groupings)
		settle()
		kept := groupings[:0]
		for _, g := range groupings {
			if member[g.last] {
				kept = append(kept, g)
				continue
			}
			for _, j := range g.outer {
				groupOf[j] = nil
			}
		}
		groupings = kept
	}
	// A GROUP BY over fetches at one region's candidates moves in: its
	// fetches are no longer read outside.
	fetchOf := func(a mal.Arg) int { // the member fetch assigning a, -1: none
		if a.IsLit() {
			return -1
		}
		if v := vars[a.Var]; v.by >= 0 && member[v.by] && v.class == vals && p.Instrs[v.by].Name() == "algebra.join" {
			return v.by
		}
		return -1
	}
	for i := range p.Instrs {
		if groupOf[i] != nil {
			continue
		}
		if g := groupingAt(p, i, readers, fetchOf); g != nil {
			groupings = append(groupings, g)
			for _, j := range g.outer {
				groupOf[j] = g
			}
		}
	}
	// Each grouping's exit takes a variable past p's, in the order of
	// their group.newpos, then each probe's index one.
	slices.SortFunc(groupings, func(a, b *grouping) int { return a.at - b.at })
	nvars = p.NVars
	for _, g := range groupings {
		g.v, nvars = mal.VarID(nvars), nvars+1
	}
	for _, g := range groupings {
		if g.op == "probe" {
			g.ix, nvars = mal.VarID(nvars), nvars+1
			g.args[0] = mal.V(g.ix)
		}
	}
	readOutside()
	// The plan's result is read whole.
	if p.Result != mal.NoVar {
		outside[p.Result], headRead[p.Result] = true, true
	}

	reads := make([]int, p.NVars)   // by members
	fetched := make([]int, p.NVars) // by deferred fetches, as their candidates
	for i, in := range p.Instrs {
		for _, a := range in.Args {
			if member[i] && !a.IsLit() {
				reads[a.Var]++
			}
		}
	}

	regionOf = make([]*region, len(p.Instrs))
	byTable := map[string]*region{}
	lastFetch := map[int]*grouping{}
	grouped := make([]int, p.NVars) // by grouped fetches, as their candidates
	for _, g := range groupings {
		lastFetch[g.last] = g
		grouped[g.cand.Var] += len(g.fetches)
	}
	for i, in := range p.Instrs {
		if !member[i] {
			continue
		}
		table := vars[in.Ret[0]].table
		r := byTable[table]
		if r == nil {
			r = &region{table: table, at: i}
			byTable[table] = r
		}
		regionOf[i] = r
		r.members = append(r.members, i)
		args := in.Args
		if g := lastFetch[i]; g != nil {
			r.groups = append(r.groups, g)
			r.exits = append(r.exits, mal.Exit{Var: g.v, Merge: mal.MergeGroups})
			args = g.args
			if g.op == "probe" {
				// It stands after its index.
				r.inputs, r.at = append(r.inputs, g.ix), max(r.at, g.indexAt)
				args = args[1:]
			}
		}
		for _, a := range args {
			if classOf(a) == column && !slices.Contains(r.slots, a.Var) {
				r.slots = append(r.slots, a.Var)
			}
		}
		v := in.Ret[0]
		merge, ok := aggregates[in.Name()]
		switch {
		case ok:
		case outside[v] && headRead[v]:
			merge = mal.MergeConcat
		case outside[v]:
			merge = mal.MergeTail
		default:
			continue
		}
		ex := mal.Exit{Var: v, Merge: merge}
		// A positional fetch no member reads is left to the merge.
		if in.Name() == "algebra.join" && reads[v] == 0 {
			ex.Fetch = &mal.Fetch{Cand: in.Args[0].Var, Col: in.Args[1].Var}
			r.fetches = append(r.fetches, i)
			fetched[ex.Fetch.Cand]++
		}
		r.exits = append(r.exits, ex)
	}
	// A sum whose only input is a fetch at a select's candidates, which
	// nothing else reads, may fold into aggr.sum(col, cand), MonetDB's
	// candidate form: sumOf[j] is the sum that reads fetch j, folded[c]
	// how many such fetches read the candidates c, counted[c] how many
	// aggr.count(c).
	sumOf := map[int]int{}
	folded := make([]int, p.NVars)
	counted := make([]int, p.NVars)
	countOf := map[mal.VarID]int{} // an aggr.count of the candidates
	for i, in := range p.Instrs {
		if !member[i] || len(in.Args) != 1 || in.Args[0].IsLit() {
			continue
		}
		v := in.Args[0].Var
		switch in.Name() {
		case "aggr.count":
			counted[v]++
			countOf[v] = i
		case "aggr.sum":
			j := vars[v].by
			if j >= 0 && p.Instrs[j].Name() == "algebra.join" && reads[v] == 1 && !outside[v] {
				sumOf[j] = i
				folded[p.Instrs[j].Args[0].Var]++
			}
		}
	}
	// A lone range select or a conjunction that only deferred or grouped
	// fetches, such sums and counts read answers a bitmap: no OID list
	// is ever written for it. Its sums fold, and only then, so a list
	// that anything else reads keeps its fetches.
	for i, in := range p.Instrs {
		c := in.Ret
		if regionOf[i] != nil && (in.Name() == "algebra.uselectall" || in.Name() == "algebra.uselect" && len(in.Args) == 5) &&
			reads[c[0]] > 0 && fetched[c[0]]+grouped[c[0]]+folded[c[0]]+counted[c[0]] == reads[c[0]] && !outside[c[0]] {
			regionOf[i].masks = append(regionOf[i].masks, i)
		}
	}
	// A mask that its one folded sum and at most one count read, and
	// nothing else, fuses with them into aggr.selectsum(col, terms…),
	// which assigns the sum and the count: no bitmap is written for it.
	for j, i := range sumOf {
		r, c := regionOf[j], p.Instrs[j].Args[0].Var
		mask := vars[c].by
		if !slices.Contains(r.masks, mask) {
			continue
		}
		if r.folds == nil {
			r.folds = map[int]int{}
		}
		r.folds[i] = j
		if folded[c] == 1 && fetched[c]+grouped[c] == 0 && counted[c] <= 1 {
			f := fusion{sum: i, count: -1}
			if counted[c] == 1 {
				f.count = countOf[c]
			}
			if r.fused == nil {
				r.fused = map[int]fusion{}
			}
			r.fused[mask] = f
		}
	}
	return regionOf, groupOf, nvars
}

func (r *region) exitVars() []mal.VarID {
	out := make([]mal.VarID, len(r.exits))
	for i, e := range r.exits {
		out[i] = e.Var
	}
	return out
}

// build emits the region's sub-plan: its members in plan order under
// their own variable numbers, each column pinned by slot right before
// its first use and unpinned right after its last (Table 2's shape,
// per fragment), uses counted on the rewritten instructions. A folded
// sum reads its fetch's column and candidates itself, and the fetch
// goes. A fused mask becomes aggr.selectsum(col, terms…) where it
// stood, assigning its sum and its count (a variable of its own when
// it has none), and they go. A deferred fetch's column is pinned and
// unpinned where the fetch stood, but the fetch runs at the exit: on
// the live ring the fragment stays readable until the query returns.
// A grouping's group.aggregate, or a probe's group.probe, stands where
// its last fetch stood, and its fetches go. nvars is the first variable
// free for the sub-plan.
func (r *region) build(p *mal.Plan, nvars int) *mal.Region {
	type step struct {
		in   mal.Instr
		emit bool // false: a deferred fetch
	}
	steps := make([]step, 0, len(r.members))
	gone := map[int]bool{} // folded and grouped fetches, fused sums and counts
	for _, j := range r.folds {
		gone[j] = true
	}
	for _, g := range r.groups {
		for _, j := range g.fetches {
			gone[j] = true
		}
	}
	for _, f := range r.fused {
		gone[f.sum], gone[f.count] = true, f.count >= 0
	}
	for _, i := range r.members {
		in := p.Instrs[i]
		if slices.Contains(r.masks, i) {
			in.Op = "uselectmask"
		}
		if j, ok := r.folds[i]; ok {
			fetch := p.Instrs[j].Args
			in.Args = []mal.Arg{fetch[1], fetch[0]}
		}
		if f, ok := r.fused[i]; ok {
			count := mal.VarID(nvars)
			if f.count >= 0 {
				count = p.Instrs[f.count].Ret[0]
			} else {
				nvars++
			}
			col := p.Instrs[r.folds[f.sum]].Args[1]
			in = mal.Instr{Module: "aggr", Op: "selectsum",
				Ret:  []mal.VarID{p.Instrs[f.sum].Ret[0], count},
				Args: append([]mal.Arg{col}, in.Args...)}
		}
		if !gone[i] {
			steps = append(steps, step{in, !slices.Contains(r.fetches, i)})
		}
		for _, g := range r.groups {
			if g.last == i {
				steps = append(steps, step{mal.Instr{Module: "group", Op: g.op, Ret: []mal.VarID{g.v}, Args: g.args}, true})
			}
		}
	}
	sub := &mal.Plan{Name: r.table, NVars: nvars, Result: mal.NoVar,
		Instrs: make([]mal.Instr, 0, len(steps)+2*len(r.slots))}
	slotOf := func(a mal.Arg) int { // -1: not one of the region's columns
		if a.IsLit() {
			return -1
		}
		return slices.Index(r.slots, a.Var)
	}
	lastUse := make([]int, len(r.slots))
	for k, s := range steps {
		for _, a := range s.in.Args {
			if slot := slotOf(a); slot >= 0 {
				lastUse[slot] = k
			}
		}
	}
	pinned := make([]bool, len(r.slots))
	for k, s := range steps {
		for _, a := range s.in.Args {
			if slot := slotOf(a); slot >= 0 && !pinned[slot] {
				sub.Instrs = append(sub.Instrs, mal.Instr{
					Module: "datacyclotron", Op: "pin",
					Ret:  []mal.VarID{a.Var},
					Args: []mal.Arg{mal.L(mal.Slot(slot))},
				})
				pinned[slot] = true
			}
		}
		if s.emit {
			sub.Instrs = append(sub.Instrs, s.in)
		}
		for _, a := range s.in.Args {
			if slot := slotOf(a); slot >= 0 && lastUse[slot] == k {
				sub.Instrs = append(sub.Instrs, mal.Instr{
					Module: "datacyclotron", Op: "unpin",
					Args: []mal.Arg{mal.V(a.Var)},
				})
				lastUse[slot] = -1 // once, even if the instruction reads it twice
			}
		}
	}
	return mal.NewRegion(sub, r.exits, r.inputs)
}
