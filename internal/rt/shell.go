package rt

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/fir"
	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/ops"
	"repro/internal/spec"
)

// Config configures a new or resumed process, on any engine.
type Config struct {
	// Heap configures the process heap.
	Heap heap.Config
	// Collector overrides the default generational policy.
	Collector heap.Collector
	// Stdout receives output from the print externs (default: discard).
	Stdout io.Writer
	// Fuel bounds the number of execution steps (0 = unlimited).
	Fuel uint64
	// TrapSpeculation turns trapped runtime errors inside a speculation
	// into automatic rollbacks of the innermost level with c = TrapC.
	TrapSpeculation bool
	// Name identifies the process in errors and logs.
	Name string
	// Args are process arguments readable through the getarg extern.
	Args []int64
	// Seed seeds the deterministic rand_int extern.
	Seed int64
}

// Errors a process returns from Run and RunSteps.
var (
	ErrFuelExhausted = errors.New("rt: fuel exhausted")
	ErrNotRunning    = errors.New("rt: process is not running")
	ErrNoMigration   = errors.New("rt: no migration handler installed")
)

// RuntimeError is a trapped execution error: a failed safety check,
// arithmetic trap, or extern failure. When the process is inside a
// speculation and TrapSpeculation is enabled, a RuntimeError triggers an
// automatic rollback of the innermost level instead of killing the process
// (the exception-style use of speculations described in §2).
type RuntimeError struct {
	Fn  string
	Err error
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("rt: runtime error in %s: %v", e.Fn, e.Err)
}

func (e *RuntimeError) Unwrap() error { return e.Err }

// TrapC is the speculation status value c passed to a continuation when a
// level is rolled back by a trapped runtime error rather than an explicit
// rollback instruction.
const TrapC = 2

// Core is the part of a process that differs between execution engines:
// code generation, the calling convention, the GC root window and the
// inner dispatch loop. Everything else lives in the Shell the engine
// embeds.
type Core interface {
	// Load compiles the program (or adopts a precompiled artifact), sizes
	// the frame, and returns the names of the externs the code calls;
	// the code refers to them by index into that slice (CallExtern).
	Load() (externs []string, err error)
	// Invoke positions the process at function fnIdx with args bound to
	// its parameters, kind-checking every value, and sets Shell.CurFn.
	// args may be scratch: the values are copied before Invoke returns.
	Invoke(fnIdx int64, args []heap.Value) error
	// RunSeg executes up to budget FIR nodes (budget > 0), Charging each
	// one, a node that fails included. It returns early when the process
	// leaves StatusRunning or an extern asked to yield.
	RunSeg(budget uint64) error
	// Roots enumerates the live frame values while the process is stopped
	// at or inside its current node.
	Roots(yield func(heap.Value))
}

// std is the standard extern table. The standard externs are stateless
// closures over Runtime, so one table serves every process; per-process
// registrations land in a small overlay (Shell.extra).
var std = sync.OnceValue(StdExterns)

// Shell is the engine-independent part of a process — the paper's one
// process abstraction: identity, heap, speculation stack, extern table,
// lifecycle and step accounting, and the control transfers that touch
// them. An engine embeds a Shell by value, calls Init with itself as the
// Core, and thereby satisfies Proc.
type Shell struct {
	// CurFn names the function being executed; the engine's Invoke (and
	// any call form that bypasses it) keeps it current so runtime errors
	// are attributed to the right function.
	CurFn string

	core    Core
	name    string
	prog    *fir.Program
	h       *heap.Heap
	mgr     *spec.Manager
	extra   Registry // per-process registrations overriding std; nil until first use
	migrate MigrateHandler

	extNames []string // the loaded code's extern table, by index
	extVals  []Extern

	status Status
	halt   int64
	err    error
	steps  uint64
	fuel   uint64 // remaining; only enforced when fuelOn
	fuelOn bool
	yield  bool

	stdout   io.Writer
	pins     []heap.Value
	args     []int64
	rng      uint64
	trapSpec bool

	// callbuf is scratch for continuation calls (c, saved args...); Invoke
	// copies out of it. Values handed to components that retain them
	// (speculation continuations, migration handlers) get fresh slices.
	callbuf []heap.Value
	// Migrate-target interning: checkpoint loops load the same target
	// string every iteration, so one cached copy serves the whole run.
	targetBuf []byte
	targetStr string
}

// Init prepares the shell for prog. With h nil the process gets a fresh
// heap (the program is not type-checked until Start, so externs can still
// be registered); otherwise h is a restored heap and conts its speculation
// continuation stack — the unpack path, continued by StartAt.
func (s *Shell) Init(core Core, prog *fir.Program, h *heap.Heap, conts []spec.Continuation, cfg Config) error {
	if h == nil {
		h = heap.New(cfg.Heap)
	}
	if cfg.Collector != nil {
		h.SetCollector(cfg.Collector)
	} else {
		h.SetCollector(gc.New())
	}
	out := cfg.Stdout
	if out == nil {
		out = io.Discard
	}
	*s = Shell{
		core:     core,
		name:     cfg.Name,
		prog:     prog,
		h:        h,
		mgr:      spec.New(h),
		stdout:   out,
		fuel:     cfg.Fuel,
		fuelOn:   cfg.Fuel > 0,
		args:     cfg.Args,
		rng:      uint64(cfg.Seed)*2862933555777941757 + 3037000493,
		trapSpec: cfg.TrapSpeculation,
		callbuf:  make([]heap.Value, 0, 8),
	}
	if err := s.mgr.RestoreStack(conts); err != nil {
		return err
	}
	// Frame values first, then the extern pins.
	h.AddRoots(func(yield func(heap.Value)) {
		core.Roots(yield)
		for _, v := range s.pins {
			yield(v)
		}
	})
	return nil
}

// Name returns the process name.
func (s *Shell) Name() string { return s.name }

// Program returns the FIR program the process executes.
func (s *Shell) Program() *fir.Program { return s.prog }

// Heap returns the process heap.
func (s *Shell) Heap() *heap.Heap { return s.h }

// Spec returns the speculation manager.
func (s *Shell) Spec() *spec.Manager { return s.mgr }

// Stdout returns the writer print externs use.
func (s *Shell) Stdout() io.Writer { return s.stdout }

// Pin registers a temporary GC root, protecting a fresh allocation that is
// not yet reachable from the frame. Externs that allocate more than one
// block use it; pins are cleared after every extern.
func (s *Shell) Pin(v heap.Value) { s.pins = append(s.pins, v) }

// Arg returns the i-th process argument, or 0 when out of range.
func (s *Shell) Arg(i int64) int64 {
	if i < 0 || i >= int64(len(s.args)) {
		return 0
	}
	return s.args[i]
}

// NArgs returns the process argument count.
func (s *Shell) NArgs() int64 { return int64(len(s.args)) }

// Rand returns a deterministic pseudo-random integer in [0, n) from the
// process-seeded xorshift* stream.
func (s *Shell) Rand(n int64) int64 {
	if n <= 0 {
		return 0
	}
	s.rng ^= s.rng >> 12
	s.rng ^= s.rng << 25
	s.rng ^= s.rng >> 27
	v := (s.rng * 2685821657736338717) >> 1
	return int64(v) % n
}

// Status returns the lifecycle state.
func (s *Shell) Status() Status { return s.status }

// HaltCode returns the exit code after StatusHalted.
func (s *Shell) HaltCode() int64 { return s.halt }

// Err returns the terminal error after StatusFailed.
func (s *Shell) Err() error { return s.err }

// Steps returns the number of FIR nodes executed.
func (s *Shell) Steps() uint64 { return s.steps }

// SetMigrateHandler installs the migration implementation.
func (s *Shell) SetMigrateHandler(h MigrateHandler) { s.migrate = h }

// RegisterExtern adds or replaces an external function. Call it before
// Start so the type checker sees the signature.
func (s *Shell) RegisterExtern(name string, sig fir.ExternSig, fn ExternFn) {
	if s.extra == nil {
		s.extra = make(Registry, 8)
	}
	e := Extern{Sig: sig, Fn: fn}
	s.extra[name] = e
	for i, n := range s.extNames {
		if n == name {
			s.extVals[i] = e
		}
	}
}

// Start type-checks the program (one verdict per program and signature
// set), loads its code and positions the process at the entry function.
func (s *Shell) Start() error {
	if s.status != StatusReady {
		return fmt.Errorf("rt: Start on a %s process", s.status)
	}
	if err := checkCached(s.prog, std(), s.extra); err != nil {
		return s.fail(err)
	}
	_, idx := s.prog.Lookup(s.prog.Entry)
	return s.enter(int64(idx), nil)
}

// StartAt positions the process to invoke the function at table index
// fnIdx with the given argument values — the unpack operation's resume
// path (§4.2.2). There is no type check here: the caller has verified the
// program, or deliberately skipped verification under the trusted binary
// protocol. The arguments are still kind-checked by Invoke.
func (s *Shell) StartAt(fnIdx int64, args []heap.Value) error {
	if s.status != StatusReady {
		return fmt.Errorf("rt: StartAt on a %s process", s.status)
	}
	return s.enter(fnIdx, args)
}

func (s *Shell) enter(fnIdx int64, args []heap.Value) error {
	names, err := s.core.Load()
	if err != nil {
		return s.fail(err)
	}
	s.extNames = names
	s.extVals = make([]Extern, len(names))
	for i, n := range names {
		if e, ok := s.extra[n]; ok {
			s.extVals[i] = e
		} else {
			s.extVals[i] = std()[n]
		}
	}
	if err := s.core.Invoke(fnIdx, args); err != nil {
		return s.fail(err)
	}
	s.status = StatusRunning
	return nil
}

func (s *Shell) fail(err error) error {
	s.status = StatusFailed
	s.err = err
	return err
}

// Run executes until the process leaves StatusRunning or fuel runs out.
func (s *Shell) Run() (Status, error) { return s.RunSteps(0) }

// Yield requests that the current RunSteps quantum end after the active
// step. It is called from inside externs (on the executing goroutine):
// an extern that woke from a blocking wait yields so the driving scheduler
// or cluster engine regains control — and can deliver a pending kill or
// quiesce — without waiting out the rest of the quantum.
func (s *Shell) Yield() { s.yield = true }

// Yielding reports a pending Yield; an engine's RunSeg returns when it
// sees one after an extern call.
func (s *Shell) Yielding() bool { return s.yield }

// Charge accounts for n executed FIR nodes: one step and one unit of fuel
// each. An engine may charge a run of nodes at once, but charges a node no
// later than the first moment code outside the engine — an extern, a
// migration handler, a speculation observer — can run inside it, so that
// Steps is exact wherever it can be read.
func (s *Shell) Charge(n uint64) {
	s.steps += n
	if s.fuelOn {
		s.fuel -= n
	}
}

// RunSteps executes at most n FIR nodes (0 = unlimited). It returns the
// resulting status; StatusRunning means the quantum expired — the
// scheduler's context-switch point. Fuel is checked before every node: a
// segment's budget never exceeds what is left of it.
func (s *Shell) RunSteps(n uint64) (Status, error) {
	if s.status != StatusRunning {
		return s.status, fmt.Errorf("%w (%s)", ErrNotRunning, s.status)
	}
	end := s.steps + n
	for n == 0 || s.steps < end {
		budget := ^uint64(0)
		if n != 0 {
			budget = end - s.steps
		}
		if s.fuelOn && s.fuel < budget {
			budget = s.fuel
			if budget == 0 {
				err := s.fail(ErrFuelExhausted)
				return s.status, err
			}
		}
		if err := s.core.RunSeg(budget); err != nil {
			if s.trap(err) {
				continue
			}
			err = s.fail(err)
			return s.status, err
		}
		if s.status != StatusRunning {
			return s.status, nil
		}
		if s.yield {
			// A yield ends a bounded quantum early; an unbounded Run has
			// no scheduler to yield to, so the request is dropped.
			s.yield = false
			if n != 0 {
				return s.status, nil
			}
		}
	}
	return s.status, nil
}

// trap converts a trappable runtime error into an automatic rollback of
// the innermost speculation level when TrapSpeculation is on (§2's
// exception-style speculations). It reports whether execution continues.
func (s *Shell) trap(err error) bool {
	var rte *RuntimeError
	if !s.trapSpec || !errors.As(err, &rte) || s.mgr.Depth() == 0 {
		return false
	}
	cont, err := s.mgr.Rollback(s.mgr.Depth())
	if err != nil {
		return false
	}
	return s.core.Invoke(cont.FnIndex, s.contCall(heap.IntVal(TrapC), cont.Args)) == nil
}

// contCall builds a continuation's argument list (c, saved...) in scratch.
func (s *Shell) contCall(c heap.Value, saved []heap.Value) []heap.Value {
	s.callbuf = append(append(s.callbuf[:0], c), saved...)
	return s.callbuf
}

// RuntimeErr wraps err as a RuntimeError in the current function.
func (s *Shell) RuntimeErr(err error) error { return &RuntimeError{Fn: s.CurFn, Err: err} }

// RuntimeErrf is RuntimeErr over a formatted message.
func (s *Shell) RuntimeErrf(format string, args ...any) error {
	return &RuntimeError{Fn: s.CurFn, Err: fmt.Errorf(format, args...)}
}

// ArgError describes a value that failed the kind check for parameter i
// of fn.
func ArgError(fn *fir.Function, i int, err error) error {
	return fmt.Errorf("rt: %s argument %d (%s): %w", fn.Name, i, fn.Params[i].Name, err)
}

// CheckArgs applies the calling convention's run-time checks: the arity
// and the kind of every argument against fn's parameter types. This is the
// dynamic half of the safety story — arguments may have come from the
// untyped heap or from a migration image.
func CheckArgs(fn *fir.Function, args []heap.Value) error {
	if len(args) != len(fn.Params) {
		return fmt.Errorf("rt: %s takes %d arguments, given %d", fn.Name, len(fn.Params), len(args))
	}
	for i, a := range args {
		if err := ops.CheckKind(a, fn.Params[i].Type); err != nil {
			return ArgError(fn, i, err)
		}
	}
	return nil
}

// The control transfers. Each is one FIR node; the engine reads the
// node's operands out of its frame and the shell does the rest, ending —
// except for CallExtern and Halt — in the engine's Invoke. A returned
// error is already a RuntimeError.

// CallExtern calls extern idx of the loaded code's table and checks the
// result against the extern's signature. args may be scratch.
func (s *Shell) CallExtern(idx int32, args []heap.Value) (heap.Value, error) {
	ext := &s.extVals[idx]
	if ext.Fn == nil {
		return heap.Value{}, s.RuntimeErrf("unknown extern %q", s.extNames[idx])
	}
	v, err := ext.Fn(s, args)
	s.pins = s.pins[:0]
	if err != nil {
		return v, s.RuntimeErr(err)
	}
	if err := ops.CheckKind(v, ext.Sig.Result); err != nil {
		return v, s.RuntimeErrf("extern %q result: %v", s.extNames[idx], err)
	}
	return v, nil
}

// Halt ends the process with exit code c.
func (s *Shell) Halt(c heap.Value) error {
	if c.Kind != heap.KInt {
		return s.RuntimeErrf("halt code is %s, want int", c.Kind)
	}
	s.status = StatusHalted
	s.halt = c.I
	return nil
}

// Speculate enters a speculation level whose continuation is fn(c, args...)
// and calls it with c = 0.
func (s *Shell) Speculate(fn heap.Value, args []heap.Value) error {
	if fn.Kind != heap.KFun {
		return s.RuntimeErrf("speculate target is %s, want fun", fn)
	}
	saved := append(make([]heap.Value, 0, len(args)), args...)
	s.mgr.Enter(spec.Continuation{FnIndex: fn.I, Args: saved})
	return s.invoke(fn.I, s.contCall(heap.IntVal(0), saved))
}

// Commit folds speculation level lv into the one below and calls fn(args...).
func (s *Shell) Commit(lv, fn heap.Value, args []heap.Value) error {
	if lv.Kind != heap.KInt {
		return s.RuntimeErrf("commit level is %s, want int", lv.Kind)
	}
	if fn.Kind != heap.KFun {
		return s.RuntimeErrf("commit target is %s, want fun", fn)
	}
	if err := s.mgr.Commit(int(lv.I)); err != nil {
		return s.RuntimeErr(err)
	}
	return s.invoke(fn.I, args)
}

// Rollback reverts speculation level lv and every later one, and re-enters
// lv's continuation with status c.
func (s *Shell) Rollback(lv, c heap.Value) error {
	if lv.Kind != heap.KInt || c.Kind != heap.KInt {
		return s.RuntimeErrf("rollback operands must be int")
	}
	cont, err := s.mgr.Rollback(int(lv.I))
	if err != nil {
		return s.RuntimeErr(err)
	}
	return s.invoke(cont.FnIndex, s.contCall(c, cont.Args))
}

// Migrate runs the migrate pseudo-instruction with the given label: the
// handler gets the target string read from (ptr, off) and the continuation
// fn(args...); unless it moved the process away, that continuation then
// runs here.
func (s *Shell) Migrate(label int, ptr, off, fn heap.Value, args []heap.Value) error {
	if ptr.Kind != heap.KPtr || off.Kind != heap.KInt {
		return s.RuntimeErrf("migrate target must be (ptr, int)")
	}
	ptr.Off += off.I
	b, err := s.h.AppendString(s.targetBuf[:0], ptr)
	if err != nil {
		return s.RuntimeErr(err)
	}
	s.targetBuf = b[:0]
	if string(b) != s.targetStr {
		s.targetStr = string(b)
	}
	if fn.Kind != heap.KFun {
		return s.RuntimeErrf("migrate continuation is %s, want fun", fn)
	}
	if s.migrate == nil {
		return s.RuntimeErr(ErrNoMigration)
	}
	// Migration handlers may retain the arguments (pack, remote handoff).
	args = append(make([]heap.Value, 0, len(args)), args...)
	outcome, err := s.migrate(&MigrationRequest{Rt: s, Label: label, Target: s.targetStr, FnIndex: fn.I, Args: args})
	s.pins = s.pins[:0]
	if err != nil {
		// "If migration fails for any reason, the process will continue
		// to execute on the original machine." (§4.2.1)
		outcome = OutcomeContinueLocal
	}
	switch outcome {
	case OutcomeMigrated:
		s.status = StatusMigrated
	case OutcomeSuspended:
		s.status = StatusSuspended
	default:
		return s.invoke(fn.I, args)
	}
	return nil
}

func (s *Shell) invoke(fnIdx int64, args []heap.Value) error {
	if err := s.core.Invoke(fnIdx, args); err != nil {
		return s.RuntimeErr(err)
	}
	return nil
}
