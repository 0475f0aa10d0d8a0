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
package dcopt

import (
	"fmt"

	"repro/internal/mal"
)

// Stats reports what the rewrite did.
type Stats struct {
	Requests int // sql.bind calls rewritten
	Pins     int
	Unpins   int
	// Fused counts pin+scan+unpin chains collapsed into one
	// datacyclotron.pinselect* instruction (each also implies a pin and
	// an unpin executed inside the fused operator).
	Fused int
}

// fusedScanOp maps a scan instruction onto its fused pin-form. A scan
// whose column argument is a pinned fragment stream can run per
// fragment as fragments arrive, instead of waiting for the whole
// column to be merged first.
var fusedScanOp = map[string]string{
	"algebra.select":   "pinselect",
	"algebra.uselect":  "pinuselect",
	"algebra.selectEq": "pinselecteq",
	"algebra.selectNe": "pinselectne",
}

// Rewrite returns the Data Cyclotron form of p, leaving p untouched.
func Rewrite(p *mal.Plan) (*mal.Plan, Stats, error) {
	var st Stats

	// lastUse[v] = index of the last instruction consuming bind result v.
	lastUse := map[mal.VarID]int{}
	isBind := map[mal.VarID]bool{}
	for _, in := range p.Instrs {
		if in.Name() == "sql.bind" && len(in.Ret) == 1 {
			isBind[in.Ret[0]] = true
		}
	}
	for i, in := range p.Instrs {
		for _, a := range in.Args {
			if !a.IsLit() && isBind[a.Var] {
				lastUse[a.Var] = i
			}
		}
	}

	out := mal.Plan{Name: p.Name + "_dc", NVars: p.NVars, Result: p.Result}
	handle := map[mal.VarID]mal.VarID{} // bind var -> request handle var
	pinned := map[mal.VarID]bool{}
	newVar := func() mal.VarID {
		v := mal.VarID(out.NVars)
		out.NVars++
		return v
	}

	for i, in := range p.Instrs {
		if in.Name() == "sql.bind" && len(in.Ret) == 1 {
			// X := sql.bind(s,t,c)  =>  H := datacyclotron.request(s,t,c)
			h := newVar()
			handle[in.Ret[0]] = h
			out.Instrs = append(out.Instrs, mal.Instr{
				Module: "datacyclotron", Op: "request",
				Ret:  []mal.VarID{h},
				Args: in.Args,
			})
			st.Requests++
			continue
		}
		// Fusion: a scan that is both the first and the last use of a
		// bound column collapses into one datacyclotron.pinselect*
		// instruction. The fused operator pins the column's fragments as
		// they arrive (any order), scans each on a bounded pool, unpins
		// it, and merges the per-fragment results in fragment order —
		// Table 2's pin/op/unpin chain, minus the wait for the whole
		// column.
		if fused, ok := fusedScanOp[in.Name()]; ok && len(in.Ret) == 1 && len(in.Args) > 0 &&
			!in.Args[0].IsLit() && isBind[in.Args[0].Var] && !pinned[in.Args[0].Var] &&
			lastUse[in.Args[0].Var] == i && fusibleArgs(in.Args[1:], isBind) {
			x := in.Args[0].Var
			h, ok := handle[x]
			if !ok {
				return nil, st, fmt.Errorf("dcopt: X%d used before its bind", x)
			}
			args := append([]mal.Arg{mal.V(h)}, in.Args[1:]...)
			out.Instrs = append(out.Instrs, mal.Instr{
				Module: "datacyclotron", Op: fused,
				Ret:  in.Ret,
				Args: args,
			})
			pinned[x] = true
			delete(lastUse, x)
			st.Fused++
			continue
		}
		// Inject pins for first uses among this instruction's arguments.
		for _, a := range in.Args {
			if a.IsLit() || !isBind[a.Var] || pinned[a.Var] {
				continue
			}
			h, ok := handle[a.Var]
			if !ok {
				return nil, st, fmt.Errorf("dcopt: X%d used before its bind", a.Var)
			}
			out.Instrs = append(out.Instrs, mal.Instr{
				Module: "datacyclotron", Op: "pin",
				Ret:  []mal.VarID{a.Var}, // pin assigns the original variable
				Args: []mal.Arg{mal.V(h)},
			})
			pinned[a.Var] = true
			st.Pins++
		}
		out.Instrs = append(out.Instrs, in)
		// Inject unpins for variables whose last use was this instruction.
		for _, a := range in.Args {
			if a.IsLit() || !isBind[a.Var] {
				continue
			}
			if last, ok := lastUse[a.Var]; ok && last == i {
				out.Instrs = append(out.Instrs, mal.Instr{
					Module: "datacyclotron", Op: "unpin",
					Args: []mal.Arg{mal.V(a.Var)},
				})
				st.Unpins++
				delete(lastUse, a.Var)
			}
		}
	}
	return &out, st, nil
}

// fusibleArgs reports whether a scan's non-column arguments keep the
// fusion valid: literals and non-bind variables pass through; another
// bound column as a scan parameter would need its own pin and defeats
// the per-fragment form.
func fusibleArgs(args []mal.Arg, isBind map[mal.VarID]bool) bool {
	for _, a := range args {
		if !a.IsLit() && isBind[a.Var] {
			return false
		}
	}
	return true
}

// RequestedColumns lists the (schema, table, column) triples the
// rewritten plan will request, in plan order. Drivers use this to know a
// query's data needs up front.
func RequestedColumns(p *mal.Plan) [][3]string {
	var cols [][3]string
	for _, in := range p.Instrs {
		if in.Name() != "datacyclotron.request" && in.Name() != "sql.bind" {
			continue
		}
		if len(in.Args) < 3 {
			continue
		}
		var triple [3]string
		ok := true
		for i := 0; i < 3; i++ {
			if !in.Args[i].IsLit() {
				ok = false
				break
			}
			s, isStr := in.Args[i].Lit.(string)
			if !isStr {
				ok = false
				break
			}
			triple[i] = s
		}
		if ok {
			cols = append(cols, triple)
		}
	}
	return cols
}
