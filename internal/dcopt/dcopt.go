// Package dcopt implements the Data Cyclotron plan optimizer of §4.1:
// it rewrites a MAL plan produced by the SQL front-end, replacing each
// persistent-column sql.bind call with a datacyclotron.request call,
// injecting a datacyclotron.pin call immediately before the first use of
// the column, and a datacyclotron.unpin call right after its last use.
//
// The transformation is exactly the one illustrated by Table 1 → Table 2
// in the paper: request() registers interest and never blocks, pin()
// blocks the consuming dataflow thread until the BAT is locally
// available, and unpin() releases the memory-mapped region.
//
// Columns circulate as fragments, so the rewrite also finds the part of
// the plan that can run on one fragment at a time and outlines it
// (region.go): there the pin/op/unpin chain of Table 2 is emitted into a
// sub-plan that the runtime executes per fragment as fragments flow
// past, and only what leaves the region is merged.
package dcopt

import (
	"fmt"
	"slices"

	"repro/internal/mal"
)

// Stats reports what the rewrite did.
type Stats struct {
	Requests int // sql.bind calls rewritten
	Pins     int // whole-column pins in the outer plan
	Unpins   int
	Regions  int // aligned regions outlined, one datacyclotron.aligned each
	Local    int // instructions that moved into a region's sub-plan
}

// Rewrite returns the Data Cyclotron form of p, leaving p untouched.
func Rewrite(p *mal.Plan) (*mal.Plan, Stats, error) {
	var st Stats
	p = withoutDead(p)

	// Per variable of p: the sql.bind that assigns it (-1: not a bound
	// column), the last outer instruction consuming it, its request
	// handle in the rewritten plan, and whether the outer plan has
	// pinned it.
	bindAt := make([]int, p.NVars)
	lastUse := make([]int, p.NVars)
	handle := make([]mal.VarID, p.NVars)
	pinned := make([]bool, p.NVars)
	for v := range bindAt {
		bindAt[v], lastUse[v], handle[v] = -1, -1, mal.NoVar
	}
	for i, in := range p.Instrs {
		if in.Name() == "sql.bind" && len(in.Ret) == 1 {
			bindAt[in.Ret[0]] = i
		}
	}
	isBind := func(a mal.Arg) bool { return !a.IsLit() && bindAt[a.Var] >= 0 }
	regionOf, groupOf, nvars := outline(p, bindAt)
	standing := make([]*region, len(p.Instrs))
	for i, in := range p.Instrs {
		if r := regionOf[i]; r != nil {
			standing[r.at] = r
			continue
		}
		if groupOf[i] != nil {
			continue
		}
		for _, a := range in.Args {
			if isBind(a) {
				lastUse[a.Var] = i
			}
		}
	}

	out := mal.Plan{Name: p.Name + "_dc", NVars: nvars, Result: p.Result}
	firstFree := out.NVars
	// X := sql.bind(s,t,c)  =>  H := datacyclotron.request(s,t,c)
	request := func(x mal.VarID) mal.VarID {
		if handle[x] == mal.NoVar {
			handle[x] = mal.VarID(out.NVars)
			out.NVars++
			out.Instrs = append(out.Instrs, mal.Instr{
				Module: "datacyclotron", Op: "request",
				Ret:  []mal.VarID{handle[x]},
				Args: p.Instrs[bindAt[x]].Args,
			})
			st.Requests++
		}
		return handle[x]
	}

	for i, in := range p.Instrs {
		if in.Name() == "sql.bind" && len(in.Ret) == 1 {
			request(in.Ret[0])
			continue
		}
		g := groupOf[i]
		if g != nil && g.op == "probe" && i == g.indexAt {
			// The probe's key index is made where the join stood.
			out.Instrs = append(out.Instrs, mal.Instr{
				Module: "group", Op: "index",
				Ret: []mal.VarID{g.ix}, Args: []mal.Arg{g.build},
			})
		}
		if r := standing[i]; r != nil {
			// The whole region stands where its first instruction stood,
			// or, when it reads inputs, where the last of them is built:
			// it needs nothing else but request handles, and everything
			// that consumes an exit came after it.
			args := []mal.Arg{mal.L(r.build(p, firstFree))}
			for _, x := range r.slots {
				args = append(args, mal.V(request(x)))
			}
			for _, v := range r.inputs {
				args = append(args, mal.V(v))
			}
			out.Instrs = append(out.Instrs, mal.Instr{
				Module: "datacyclotron", Op: "aligned",
				Ret: r.exitVars(), Args: args,
			})
			st.Regions++
			st.Local += len(r.members)
		}
		if regionOf[i] != nil {
			continue
		}
		if g != nil {
			// The merged groups are read out where group.newpos stood.
			if i == g.at {
				for k, v := range g.ret {
					if v == mal.NoVar {
						g.ret[k] = mal.VarID(out.NVars)
						out.NVars++
					}
				}
				out.Instrs = append(out.Instrs, mal.Instr{
					Module: "group", Op: "columns",
					Ret: g.ret, Args: []mal.Arg{mal.V(g.v)},
				})
			}
			continue
		}
		// Inject pins for first uses among this instruction's arguments.
		for _, a := range in.Args {
			if !isBind(a) || pinned[a.Var] {
				continue
			}
			if handle[a.Var] == mal.NoVar {
				return nil, st, fmt.Errorf("dcopt: X%d used before its bind", a.Var)
			}
			out.Instrs = append(out.Instrs, mal.Instr{
				Module: "datacyclotron", Op: "pin",
				Ret:  []mal.VarID{a.Var}, // pin assigns the original variable
				Args: []mal.Arg{mal.V(handle[a.Var])},
			})
			pinned[a.Var] = true
			st.Pins++
		}
		out.Instrs = append(out.Instrs, in)
		// Inject unpins for variables whose last use was this instruction.
		for _, a := range in.Args {
			if isBind(a) && lastUse[a.Var] == i {
				out.Instrs = append(out.Instrs, mal.Instr{
					Module: "datacyclotron", Op: "unpin",
					Args: []mal.Arg{mal.V(a.Var)},
				})
				st.Unpins++
				lastUse[a.Var] = -1 // once, even if the instruction reads it twice
			}
		}
	}
	return &out, st, nil
}

// withoutDead is p without the instructions whose results nothing
// reads — a realignment of a table no later step projects — and, in
// turn, what only they read. sql.* and datacyclotron.* instructions,
// instructions without results and whatever assigns the plan's result
// stay. p itself when nothing is dead.
func withoutDead(p *mal.Plan) *mal.Plan {
	reads := make([]int, p.NVars)
	for _, in := range p.Instrs {
		for _, a := range in.Args {
			if !a.IsLit() {
				reads[a.Var]++
			}
		}
	}
	dead := make([]bool, len(p.Instrs))
	n := 0
	// Backwards, every reader is judged before what it reads.
	for i := len(p.Instrs) - 1; i >= 0; i-- {
		in := p.Instrs[i]
		if in.Module == "sql" || in.Module == "datacyclotron" || len(in.Ret) == 0 {
			continue
		}
		if slices.ContainsFunc(in.Ret, func(v mal.VarID) bool { return reads[v] > 0 || v == p.Result }) {
			continue
		}
		dead[i], n = true, n+1
		for _, a := range in.Args {
			if !a.IsLit() {
				reads[a.Var]--
			}
		}
	}
	if n == 0 {
		return p
	}
	out := &mal.Plan{Name: p.Name, NVars: p.NVars, Result: p.Result, Instrs: make([]mal.Instr, 0, len(p.Instrs)-n)}
	for i, in := range p.Instrs {
		if !dead[i] {
			out.Instrs = append(out.Instrs, in)
		}
	}
	return out
}
