package dcopt

import (
	"slices"

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
}

// fusion is what a mask fuses with into aggr.selectsum: the one folded
// sum that reads it and its count, -1 when it has none.
type fusion struct{ sum, count int }

// outline finds the maximal fragment-local region of every table in p
// and returns, per instruction, the region that takes it (nil: the
// instruction stays in the outer plan). bindAt locates each bound
// column's sql.bind. A bound column is pinned in one place only, so a
// column some outer instruction reads whole keeps its readers out of
// the region, and so, in turn, what depends on them.
func outline(p *mal.Plan, bindAt []int) []*region {
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

	// Drop members until every column a member pins is read by members
	// only and every member's inputs are still produced by members.
	outside := make([]bool, p.NVars) // read by the outer plan
	// A value only sql.resultSet reads leaves by its tail: the result set
	// heads every column dense [0, n) anyway.
	headRead := make([]bool, p.NVars)
	for changed := true; changed; {
		changed = false
		clear(outside)
		clear(headRead)
		for i, in := range p.Instrs {
			for _, a := range in.Args {
				if !member[i] && !a.IsLit() {
					outside[a.Var] = true
					headRead[a.Var] = headRead[a.Var] || in.Name() != "sql.resultSet"
				}
			}
		}
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

	regionOf := make([]*region, len(p.Instrs))
	byTable := map[string]*region{}
	for i, in := range p.Instrs {
		if !member[i] {
			continue
		}
		table := vars[in.Ret[0]].table
		r := byTable[table]
		if r == nil {
			r = &region{table: table}
			byTable[table] = r
		}
		regionOf[i] = r
		r.members = append(r.members, i)
		for _, a := range in.Args {
			if !a.IsLit() && vars[a.Var].class == column && !slices.Contains(r.slots, a.Var) {
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
	// A lone range select or a conjunction that only deferred fetches,
	// such sums and counts read answers a bitmap: no OID list is ever
	// written for it. Its sums fold, and only then, so a list that
	// anything else reads keeps its fetches.
	for i, in := range p.Instrs {
		c := in.Ret
		if regionOf[i] != nil && (in.Name() == "algebra.uselectall" || in.Name() == "algebra.uselect" && len(in.Args) == 5) &&
			reads[c[0]] > 0 && fetched[c[0]]+folded[c[0]]+counted[c[0]] == reads[c[0]] && !outside[c[0]] {
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
		if folded[c] == 1 && fetched[c] == 0 && counted[c] <= 1 {
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
	return regionOf
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
func (r *region) build(p *mal.Plan) *mal.Region {
	type step struct {
		in   mal.Instr
		emit bool // false: a deferred fetch
	}
	steps := make([]step, 0, len(r.members))
	nvars := p.NVars
	gone := map[int]bool{} // folded fetches, fused sums and counts
	for _, j := range r.folds {
		gone[j] = true
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
	return mal.NewRegion(sub, r.exits)
}
