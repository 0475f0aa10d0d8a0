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

// OpFunc implements one MAL operation. It reads the evaluated arguments
// from c.Args and hands back exactly as many values as the instruction
// declares results, through c.Return.
type OpFunc func(ctx *Context, c *Call) error

// Call is one execution of an instruction, as its OpFunc sees it. It
// belongs to the run's frame and serves the next instruction once the op
// returns, so an op keeps no reference to it, to Args, or to the terms
// it placed (Call.terms).
type Call struct {
	// Args are the evaluated operands, literals included.
	Args []Value
	res  []Value // the results, appended by Return
	// lits are the instruction's ranges, decoded when its plan was bound
	// (literalRanges); nil when it is no range select.
	lits []bat.Term
	// scratch is where a call places its columns into lits.
	scratch []bat.Term
}

// Return appends the call's results, in the order of the instruction's
// result variables. It returns nil, so an op can end with it.
func (c *Call) Return(vs ...Value) error {
	c.res = append(c.res, vs...)
	return nil
}

// Registry maps module.op to implementations. The zero value is empty;
// NewRegistry returns one preloaded with the standard operator set.
type Registry struct {
	ops map[opKey]OpFunc
	// gen counts Register calls: a plan bound under an older count binds
	// again.
	gen    uint64
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
	r.gen++
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
	b, err := p.bind(ctx.Registry)
	if err != nil {
		return nil, err
	}
	f := b.frame()
	defer b.release(f)
	if err := b.exec(ctx, p, f); err != nil {
		return nil, err
	}
	if p.Result == NoVar {
		return nil, nil
	}
	return f.vals[p.Result], nil
}

// RunAll executes the plan and returns the full variable table. With
// ctx.Workers > 1 instructions execute concurrently following dataflow
// dependencies, mirroring MonetDB's interpreter threads; pin() calls may
// block without stalling independent instruction threads.
func RunAll(ctx *Context, p *Plan) ([]Value, error) {
	b, err := p.bind(ctx.Registry)
	if err != nil {
		return nil, err
	}
	f := b.frame()
	defer b.release(f)
	if err := b.exec(ctx, p, f); err != nil {
		return nil, err
	}
	return slices.Clone(f.vals), nil
}

// binding is a plan resolved against one registry: each instruction's
// op and its literal ranges, the plan's dataflow graph, and the frames
// its runs have released. A plan keeps the binding of the registry it
// last ran under (Plan.bound), so a cached plan — a served query's, or
// a region's sub-plan that runs once per fragment — looks nothing up
// and allocates no frame when it runs.
type binding struct {
	reg  *Registry
	gen  uint64
	fns  []OpFunc
	lits [][]bat.Term // per instruction, literalRanges
	flow *dataflow
	// The frame's widths: variables, the widest instruction's arguments
	// and results, and the most ranges one instruction decodes.
	nvars, args, rets, terms int
	// free holds the released frames: as many as the plan's runs ever
	// had at once.
	mu   sync.Mutex
	free []*frame
}

// bind returns p's binding to reg, resolving every instruction's op
// and decoding its ranges when p has none for reg as it stands. An
// unknown op, or a range select whose limits are not literals, fails
// the run before any instruction executes.
func (p *Plan) bind(reg *Registry) (*binding, error) {
	if reg == nil {
		return nil, fmt.Errorf("mal: nil registry")
	}
	if b := p.bound.Load(); b != nil && b.reg == reg && b.gen == reg.gen {
		return b, nil
	}
	b := &binding{reg: reg, gen: reg.gen, nvars: p.NVars, fns: make([]OpFunc, len(p.Instrs)), lits: make([][]bat.Term, len(p.Instrs))}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		fn, ok := reg.Lookup(in.Module, in.Op)
		if !ok {
			return nil, fmt.Errorf("mal: unknown operation %s", in.Name())
		}
		lits, err := literalRanges(in)
		if err != nil {
			return nil, fmt.Errorf("mal: instr %d (%s): %w", i, in.Name(), err)
		}
		b.fns[i], b.lits[i] = fn, lits
		b.args, b.rets, b.terms = max(b.args, len(in.Args)), max(b.rets, len(in.Ret)), max(b.terms, len(b.lits[i]))
	}
	b.flow = newDataflow(p)
	p.bound.Store(b)
	return b, nil
}

// frame is one run's working memory: the variable table, the call every
// instruction of the run executes through, and, for a region's part, the
// part's context (Region.run). It comes from its binding and goes back,
// cleared, when the run is over.
type frame struct {
	vals []Value
	call Call
	ctx  Context
}

func (b *binding) frame() *frame {
	b.mu.Lock()
	if k := len(b.free); k > 0 {
		f := b.free[k-1]
		b.free = b.free[:k-1]
		b.mu.Unlock()
		return f
	}
	b.mu.Unlock()
	buf := make([]Value, b.nvars+b.args+b.rets)
	return &frame{
		vals: buf[:b.nvars:b.nvars],
		call: Call{Args: buf[b.nvars : b.nvars+b.args : b.nvars+b.args], res: buf[b.nvars+b.args : b.nvars+b.args], scratch: make([]bat.Term, b.terms)},
	}
}

// release clears f, so that it holds no value of the run, and hands
// it back.
func (b *binding) release(f *frame) {
	clear(f.vals)
	f.call.reset()
	f.ctx = Context{}
	b.mu.Lock()
	b.free = append(b.free, f)
	b.mu.Unlock()
}

// reset empties the call's buffers for the next run.
func (c *Call) reset() {
	clear(c.Args[:cap(c.Args)])
	clear(c.res[:cap(c.res)])
	clear(c.scratch)
	c.lits = nil
}

// exec runs p, bound as b, in frame f.
func (b *binding) exec(ctx *Context, p *Plan, f *frame) error {
	if ctx.Workers <= 1 {
		return b.runSequential(ctx, p, f)
	}
	return b.runParallel(ctx, p, f)
}

// execInstr runs instruction i through c and stores its results in vals.
func (b *binding) execInstr(ctx *Context, in *Instr, i int, c *Call, vals []Value) (err error) {
	c.Args = c.Args[:len(in.Args)]
	for j, a := range in.Args {
		if a.lit {
			c.Args[j] = a.Lit
		} else {
			c.Args[j] = vals[a.Var]
		}
	}
	c.res, c.lits = c.res[:0], b.lits[i]
	// Kernel operators panic on type/shape errors; surface those as
	// plan-level errors rather than crashing the engine.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("mal: %s: %v", in.Name(), r)
		}
	}()
	if err := b.fns[i](ctx, c); err != nil {
		return fmt.Errorf("mal: %s: %w", in.Name(), err)
	}
	if len(c.res) != len(in.Ret) {
		return fmt.Errorf("mal: %s returned %d values, want %d", in.Name(), len(c.res), len(in.Ret))
	}
	for j, r := range in.Ret {
		vals[r] = c.res[j]
	}
	return nil
}

func (b *binding) runSequential(ctx *Context, p *Plan, f *frame) error {
	for i := range p.Instrs {
		if ctx.cancelled() {
			return ErrCancelled
		}
		if err := b.execInstr(ctx, &p.Instrs[i], i, &f.call, f.vals); err != nil {
			return err
		}
	}
	return nil
}

// dataflow is a plan's dependency graph: an instruction becomes ready
// when every producing instruction of its arguments has completed. It
// depends on the plan alone, so its binding computes it once.
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
func (b *binding) runParallel(ctx *Context, p *Plan, f *frame) error {
	n := len(p.Instrs)
	pending := slices.Clone(b.flow.pending)
	dependents := b.flow.dependents
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
	work := func(c *Call) {
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
				if err := b.execInstr(ctx, &p.Instrs[i], i, c, f.vals); err != nil {
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
	// run from inside another plan's worker. It runs through the run's
	// frame, each other worker through a frame of its own.
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wf := b.frame()
			defer b.release(wf)
			work(&wf.call)
		}()
	}
	work(&f.call)
	wg.Wait()
	return firstErr
}
