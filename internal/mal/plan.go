// Package mal implements the plan layer of the engine: a MonetDB
// Assembly Language (MAL) style representation of query plans and a
// dataflow interpreter that executes instructions concurrently as their
// inputs become available (§3.2 of the paper).
//
// Plans are SSA-like: every variable is assigned exactly once. The
// Data Cyclotron optimizer (package dcopt) rewrites plans produced by
// the SQL front-end, replacing sql.bind calls with datacyclotron.request
// and injecting pin/unpin calls.
//
// A plan is bound to the registry it runs under once: every
// instruction's OpFunc is resolved, and the literal ranges of its range
// selects are decoded, when it first runs, not on every execution. A
// run works in a frame — the variable table and one argument and result
// buffer as wide as the plan's widest instruction — that the binding
// reuses, so a plan that runs many times, a served query's or a
// region's sub-plan run once per fragment, allocates only what its ops
// make. A plan is not modified once it has run.
package mal

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/bat"
)

// VarID identifies an SSA variable within a plan.
type VarID int

// NoVar is the null variable id.
const NoVar VarID = -1

// Value is anything an instruction can produce or consume: *bat.BAT,
// scalars, *ResultSet, or DC handles.
type Value any

// Arg is an instruction operand: either a variable reference or a
// literal constant.
type Arg struct {
	Var VarID
	Lit Value
	lit bool
}

// V references variable id.
func V(id VarID) Arg { return Arg{Var: id} }

// L embeds a literal constant.
func L(v Value) Arg { return Arg{Var: NoVar, Lit: v, lit: true} }

// IsLit reports whether the operand is a literal.
func (a Arg) IsLit() bool { return a.lit }

// Instr is one MAL instruction: module.op(args) -> rets.
type Instr struct {
	Module string
	Op     string
	Ret    []VarID
	Args   []Arg
}

// Name returns "module.op".
func (in Instr) Name() string { return in.Module + "." + in.Op }

func (in Instr) String() string {
	var b strings.Builder
	for i, r := range in.Ret {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "X%d", r)
	}
	if len(in.Ret) > 0 {
		b.WriteString(" := ")
	}
	b.WriteString(in.Name())
	b.WriteByte('(')
	for i, a := range in.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		if a.lit {
			fmt.Fprintf(&b, "%#v", a.Lit)
		} else {
			fmt.Fprintf(&b, "X%d", a.Var)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Plan is a straight-line MAL program.
type Plan struct {
	Name   string
	Instrs []Instr
	NVars  int
	// Result names the variable holding the query result (usually a
	// *ResultSet produced by sql.resultSet).
	Result VarID
	// bound is the plan resolved against the registry it last ran under
	// (Plan.bind). A plan is not modified once it has run.
	bound atomic.Pointer[binding]
}

func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "function %s():void;\n", p.Name)
	for _, in := range p.Instrs {
		fmt.Fprintf(&b, "    %s;\n", in.String())
	}
	fmt.Fprintf(&b, "end %s;\n", p.Name)
	return b.String()
}

// Builder constructs plans with SSA discipline.
type Builder struct {
	plan Plan
}

// NewBuilder returns a plan builder.
func NewBuilder(name string) *Builder {
	return &Builder{plan: Plan{Name: name, Result: NoVar}}
}

// NewVar allocates a fresh variable.
func (b *Builder) NewVar() VarID {
	id := VarID(b.plan.NVars)
	b.plan.NVars++
	return id
}

// Emit appends module.op(args)->ret with a fresh result variable.
func (b *Builder) Emit(module, op string, args ...Arg) VarID {
	ret := b.NewVar()
	b.plan.Instrs = append(b.plan.Instrs, Instr{Module: module, Op: op, Ret: []VarID{ret}, Args: args})
	return ret
}

// Emit2 appends an instruction with two result variables.
func (b *Builder) Emit2(module, op string, args ...Arg) (VarID, VarID) {
	r1, r2 := b.NewVar(), b.NewVar()
	b.plan.Instrs = append(b.plan.Instrs, Instr{Module: module, Op: op, Ret: []VarID{r1, r2}, Args: args})
	return r1, r2
}

// Emit0 appends an instruction with no results (e.g. unpin).
func (b *Builder) Emit0(module, op string, args ...Arg) {
	b.plan.Instrs = append(b.plan.Instrs, Instr{Module: module, Op: op, Args: args})
}

// SetResult marks v as the plan's result variable.
func (b *Builder) SetResult(v VarID) { b.plan.Result = v }

// Build finalizes and validates the plan.
func (b *Builder) Build() (*Plan, error) {
	p := &Plan{Name: b.plan.Name, Instrs: b.plan.Instrs, NVars: b.plan.NVars, Result: b.plan.Result}
	assigned := make([]bool, p.NVars)
	for i, in := range p.Instrs {
		for _, a := range in.Args {
			if !a.lit {
				if a.Var < 0 || int(a.Var) >= p.NVars {
					return nil, fmt.Errorf("mal: instr %d references unknown X%d", i, a.Var)
				}
				if !assigned[a.Var] {
					return nil, fmt.Errorf("mal: instr %d (%s) uses X%d before assignment", i, in.Name(), a.Var)
				}
			}
		}
		for _, r := range in.Ret {
			if r < 0 || int(r) >= p.NVars {
				return nil, fmt.Errorf("mal: instr %d assigns unknown X%d", i, r)
			}
			if assigned[r] {
				return nil, fmt.Errorf("mal: instr %d reassigns X%d (plans are SSA)", i, r)
			}
			assigned[r] = true
		}
	}
	if p.Result != NoVar && (p.Result < 0 || int(p.Result) >= p.NVars) {
		return nil, fmt.Errorf("mal: result variable X%d out of range", p.Result)
	}
	return p, nil
}

// MustBuild is Build that panics on error (for tests and static plans).
func (b *Builder) MustBuild() *Plan {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// ResultSet is the tabular query result: named columns over positionally
// aligned BAT tails.
type ResultSet struct {
	Names []string
	Cols  []*bat.BAT
	// Arena is the run's Context.Arena: the pooled buffers of the
	// columns its merges drew, when there was one.
	Arena *bat.Arena
}

// Release hands the result's pooled column buffers back (Arena.Release).
// Only a caller that will never read this result again, nor any column
// or view taken from it, may call it: a server once the result frame
// is written. A second call does nothing.
func (r *ResultSet) Release() { r.Arena.Release() }

// NumRows reports the row count.
func (r *ResultSet) NumRows() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return r.Cols[0].Len()
}

// Row materializes row i.
func (r *ResultSet) Row(i int) []any {
	out := make([]any, len(r.Cols))
	for c, b := range r.Cols {
		out[c] = b.Tail().Value(i)
	}
	return out
}

// Rows materializes the full result column-at-a-time: one kind
// dispatch per column instead of one boxed Value call per cell.
func (r *ResultSet) Rows() [][]any {
	n := r.NumRows()
	out := make([][]any, n)
	for i := range out {
		out[i] = make([]any, len(r.Cols))
	}
	for c, b := range r.Cols {
		t := b.Tail()
		switch t.Kind() {
		case bat.KInt:
			for i := 0; i < n; i++ {
				out[i][c] = t.Int(i)
			}
		case bat.KFloat:
			for i := 0; i < n; i++ {
				out[i][c] = t.Float(i)
			}
		case bat.KStr:
			for i := 0; i < n; i++ {
				out[i][c] = t.Str(i)
			}
		case bat.KOid:
			for i := 0; i < n; i++ {
				out[i][c] = t.Oid(i)
			}
		case bat.KBool:
			for i := 0; i < n; i++ {
				out[i][c] = t.Bool(i)
			}
		default:
			for i := 0; i < n; i++ {
				out[i][c] = t.Value(i)
			}
		}
	}
	return out
}

func (r *ResultSet) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Names, " | "))
	b.WriteByte('\n')
	n := r.NumRows()
	for i := 0; i < n && i < 25; i++ {
		row := r.Row(i)
		for c, v := range row {
			if c > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%v", v)
		}
		b.WriteByte('\n')
	}
	if n > 25 {
		fmt.Fprintf(&b, "... (%d rows)\n", n)
	}
	return b.String()
}
