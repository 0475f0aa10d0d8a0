package mal

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bat"
)

// ErrCancelled is returned by Run when the Context's Cancel channel
// closes before the plan completes.
var ErrCancelled = errors.New("mal: run cancelled")

// OpFunc implements one MAL operation. It receives the evaluated
// arguments and must return exactly as many values as the instruction
// declares results.
type OpFunc func(ctx *Context, args []Value) ([]Value, error)

// Registry maps module.op to implementations. The zero value is empty;
// NewRegistry returns one preloaded with the standard operator set.
type Registry struct {
	ops    map[opKey]OpFunc
	shared bool // Standard(): concurrent readers, so no writer
}

// opKey names an operation by its two parts, so resolving an
// instruction builds no "module.op" string.
type opKey struct{ module, op string }

// Register installs fn for module.op, replacing any previous binding.
func (r *Registry) Register(module, op string, fn OpFunc) {
	if r.shared {
		panic("mal: Register on the shared standard registry; extend a NewRegistry instead")
	}
	if r.ops == nil {
		r.ops = make(map[opKey]OpFunc)
	}
	r.ops[opKey{module, op}] = fn
}

// Lookup returns the implementation for module.op.
func (r *Registry) Lookup(module, op string) (OpFunc, bool) {
	fn, ok := r.ops[opKey{module, op}]
	return fn, ok
}

// Catalog resolves persistent column binds (sql.bind).
type Catalog interface {
	Bind(schema, table, column string) (Value, error)
}

// DCRuntime is the hook surface the datacyclotron.* instructions use to
// talk to the local Data Cyclotron layer (§4.1). Request registers
// interest and returns a handle; Pin blocks until the BAT is locally
// available; Unpin releases it.
type DCRuntime interface {
	Request(schema, table, column string) (Value, error)
	Pin(handle Value) (Value, error)
	Unpin(handle Value) error
}

// FragmentedDC is the optional extension of DCRuntime implemented by
// layers that deliver one request as several independently circulating
// fragments (horizontal fragmentation, §5's granularity axis). PinMap
// takes the handles of k columns of one table and calls part once per
// fragment index, with a DCRuntime whose Pin(Slot(j)) pins that
// index's fragment of handles[j] and whose Unpin releases it; every
// fragment of every column is acquired from the start, in whatever
// order the ring delivers them. Each part is driven from one goroutine,
// several parts at a time, and the per-index results come back in
// fragment order. The columns of one table are cut at the same rows, so
// index i of every handle covers the same rows; a one-fragment column
// is a map of one part.
type FragmentedDC interface {
	DCRuntime
	PinMap(handles []Value, part func(DCRuntime) (Value, error)) ([]Value, error)
}

// Context carries the execution environment for one plan run.
type Context struct {
	Registry *Registry
	Catalog  Catalog
	DC       DCRuntime
	// Workers bounds dataflow parallelism; <=1 means sequential.
	Workers int
	// Cancel, when non-nil, aborts the run: once it closes, no further
	// instructions are dispatched and Run returns ErrCancelled. Blocking
	// operations (datacyclotron.pin) are expected to watch the same
	// channel so an abandoned query cannot strand an interpreter
	// goroutine on a pin that will never be delivered.
	Cancel <-chan struct{}
	// Arena, when non-nil, is where the run's region merges draw the
	// columns they merge (bat.FetchAll, bat.ConcatAll); nil, they make
	// them. Whoever set it hands it on with the result (ResultSet.Arena).
	Arena *bat.Arena
}

// cancelled reports whether the run's cancel channel has closed.
func (ctx *Context) cancelled() bool {
	if ctx.Cancel == nil {
		return false
	}
	select {
	case <-ctx.Cancel:
		return true
	default:
		return false
	}
}

// Run executes the plan and returns the value of its Result variable
// (nil if the plan declares none).
func Run(ctx *Context, p *Plan) (Value, error) {
	vals, err := RunAll(ctx, p)
	if err != nil {
		return nil, err
	}
	if p.Result == NoVar {
		return nil, nil
	}
	return vals[p.Result], nil
}

// RunAll executes the plan and returns the full variable table. With
// ctx.Workers > 1 instructions execute concurrently following dataflow
// dependencies, mirroring MonetDB's interpreter threads; pin() calls may
// block without stalling independent instruction threads.
func RunAll(ctx *Context, p *Plan) ([]Value, error) { return runPlan(ctx, p, nil) }

// runPlan is RunAll for a caller that may already hold the plan's
// dataflow graph; nil computes it when the run needs one.
func runPlan(ctx *Context, p *Plan, g *dataflow) ([]Value, error) {
	if ctx.Registry == nil {
		return nil, fmt.Errorf("mal: nil registry")
	}
	if ctx.Workers <= 1 {
		return runSequential(ctx, p)
	}
	if g == nil {
		g = newDataflow(p)
	}
	return runParallel(ctx, p, g)
}

func execInstr(ctx *Context, in Instr, vals []Value) (err error) {
	fn, ok := ctx.Registry.Lookup(in.Module, in.Op)
	if !ok {
		return fmt.Errorf("mal: unknown operation %s", in.Name())
	}
	args := make([]Value, len(in.Args))
	for i, a := range in.Args {
		if a.lit {
			args[i] = a.Lit
		} else {
			args[i] = vals[a.Var]
		}
	}
	// Kernel operators panic on type/shape errors; surface those as
	// plan-level errors rather than crashing the engine.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("mal: %s: %v", in.Name(), r)
		}
	}()
	out, err := fn(ctx, args)
	if err != nil {
		return fmt.Errorf("mal: %s: %w", in.Name(), err)
	}
	if len(out) != len(in.Ret) {
		return fmt.Errorf("mal: %s returned %d values, want %d", in.Name(), len(out), len(in.Ret))
	}
	for i, r := range in.Ret {
		vals[r] = out[i]
	}
	return nil
}

func runSequential(ctx *Context, p *Plan) ([]Value, error) {
	vals := make([]Value, p.NVars)
	for _, in := range p.Instrs {
		if ctx.cancelled() {
			return nil, ErrCancelled
		}
		if err := execInstr(ctx, in, vals); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// dataflow is a plan's dependency graph: an instruction becomes ready
// when every producing instruction of its arguments has completed. It
// depends on the plan alone, so a plan that runs many times (a region's
// sub-plan) computes it once.
type dataflow struct {
	pending    []int   // producers each instruction waits for
	dependents [][]int // instructions waiting for each instruction
}

func newDataflow(p *Plan) *dataflow {
	n := len(p.Instrs)
	producer := make([]int, p.NVars) // instr index producing each var
	for i := range producer {
		producer[i] = -1
	}
	for i, in := range p.Instrs {
		for _, r := range in.Ret {
			producer[r] = i
		}
	}
	g := &dataflow{pending: make([]int, n), dependents: make([][]int, n)}
	var deps []int
	for i, in := range p.Instrs {
		deps = deps[:0]
		for _, a := range in.Args {
			if a.lit {
				continue
			}
			pr := producer[a.Var]
			if pr >= 0 && pr != i && !slices.Contains(deps, pr) {
				deps = append(deps, pr)
				g.dependents[pr] = append(g.dependents[pr], i)
			}
		}
		g.pending[i] = len(deps)
	}
	return g
}

// runParallel executes instructions as a dataflow graph with a bounded
// worker pool; instructions with no variable arguments are ready
// immediately. Side-effecting instructions with no results (e.g. unpin)
// additionally order after the previous instruction that consumed the
// same variable, which the SSA structure already guarantees via
// argument dependencies.
func runParallel(ctx *Context, p *Plan, g *dataflow) ([]Value, error) {
	n := len(p.Instrs)
	pending := slices.Clone(g.pending)
	dependents := g.dependents

	vals := make([]Value, p.NVars)
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	ready := make(chan int, n)
	for i := 0; i < n; i++ {
		if pending[i] == 0 {
			ready <- i
		}
	}
	workers := ctx.Workers
	if workers > n {
		workers = n
	}
	done := 0
	var doneMu sync.Mutex
	closeIfDone := func(k int) {
		doneMu.Lock()
		done += k
		if done >= n {
			close(ready)
		}
		doneMu.Unlock()
	}
	if n == 0 {
		close(ready)
	}
	work := func() {
		for i := range ready {
			mu.Lock()
			failed := firstErr != nil
			mu.Unlock()
			if !failed && ctx.cancelled() {
				mu.Lock()
				if firstErr == nil {
					firstErr = ErrCancelled
				}
				mu.Unlock()
				failed = true
			}
			if !failed {
				if err := execInstr(ctx, p.Instrs[i], vals); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
			// Release dependents even on failure so the pool drains.
			mu.Lock()
			for _, d := range dependents[i] {
				pending[d]--
				if pending[d] == 0 {
					ready <- d
				}
			}
			mu.Unlock()
			closeIfDone(1)
		}
	}
	// The caller is the first worker: a plan costs workers-1 goroutines
	// and no hand-off back, which matters when it is a region's sub-plan
	// run from inside another plan's worker.
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return vals, nil
}
