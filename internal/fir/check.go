package fir

import (
	"fmt"
	"sort"
)

// ExternSig declares the signature of an external (runtime-provided)
// function: argument types and a result type. Unlike FIR functions,
// externals return a value to their caller.
type ExternSig struct {
	Args   []Type
	Result Type
}

// CheckError is a type error located in a specific function.
type CheckError struct {
	Fn  string
	Msg string
}

func (e *CheckError) Error() string {
	if e.Fn == "" {
		return "fir: " + e.Msg
	}
	return fmt.Sprintf("fir: in %s: %s", e.Fn, e.Msg)
}

// Check type-checks a whole program against a registry of external
// signatures. It verifies that function names are unique, that the entry
// point exists and takes no parameters, and that every function body is
// well-typed: operators applied at their signatures, tail calls matching
// callee parameter lists, speculation continuations taking an int first
// parameter, and every control path ending in a transfer.
//
// This is the check a migration server runs on inbound FIR before
// recompiling and resuming a process (§4.2.2): a process is only accepted
// from an untrusted peer when Check passes.
func Check(p *Program, externs map[string]ExternSig) error {
	if p == nil {
		return &CheckError{Msg: "nil program"}
	}
	seen := make(map[string]bool, len(p.Funcs))
	for _, f := range p.Funcs {
		if f == nil {
			return &CheckError{Msg: "nil function"}
		}
		if f.Name == "" {
			return &CheckError{Msg: "function with empty name"}
		}
		if seen[f.Name] {
			return &CheckError{Fn: f.Name, Msg: "duplicate function name"}
		}
		seen[f.Name] = true
	}
	entry, _ := p.Lookup(p.Entry)
	if entry == nil {
		return &CheckError{Msg: fmt.Sprintf("entry function %q not found", p.Entry)}
	}
	if len(entry.Params) != 0 {
		return &CheckError{Fn: entry.Name, Msg: "entry function must take no parameters"}
	}
	// One environment serves every function: nothing keeps it once a
	// body is checked, and a lowered program is hundreds of small
	// continuation functions.
	c := &checker{prog: p, externs: externs, env: make(map[string]Type)}
	for _, f := range p.Funcs {
		c.fn = f.Name
		for _, prm := range f.Params {
			if prm.Name == "" {
				return &CheckError{Fn: f.Name, Msg: "parameter with empty name"}
			}
			if _, dup := c.env[prm.Name]; dup {
				return &CheckError{Fn: f.Name, Msg: fmt.Sprintf("duplicate parameter %q", prm.Name)}
			}
			c.bind(prm.Name, prm.Type)
		}
		if err := c.expr(f.Body); err != nil {
			return err
		}
		// Emptied binding by binding: clearing the map would cost its
		// capacity per function.
		c.undoTo(0)
	}
	return nil
}

type checker struct {
	prog    *Program
	externs map[string]ExternSig
	fn      string
	env     map[string]Type
	undo    []typeUndo // env changes, undone at the end of an If's then arm and of a function
}

// typeUndo restores one env entry when an If's then arm is done.
type typeUndo struct {
	name string
	had  bool
	prev Type
}

// bind extends env along the current path. Within a chain there are no
// forks; sibling If arms are kept apart by undoing the then arm's
// bindings before the else arm — copying env per branch instead made
// checking allocate per If.
func (c *checker) bind(name string, t Type) {
	prev, had := c.env[name]
	c.undo = append(c.undo, typeUndo{name: name, had: had, prev: prev})
	c.env[name] = t
}

func (c *checker) undoTo(mark int) {
	for i := len(c.undo) - 1; i >= mark; i-- {
		if u := c.undo[i]; u.had {
			c.env[u.name] = u.prev
		} else {
			delete(c.env, u.name)
		}
	}
	c.undo = c.undo[:mark]
}

func (c *checker) errf(format string, args ...any) error {
	return &CheckError{Fn: c.fn, Msg: fmt.Sprintf(format, args...)}
}

// atom returns the type of an atom under env.
func (c *checker) atom(a Atom) (Type, error) {
	switch a := a.(type) {
	case Var:
		t, ok := c.env[a.Name]
		if !ok {
			return Type{}, c.errf("unbound variable %q", a.Name)
		}
		return t, nil
	case IntLit:
		return TyInt, nil
	case FloatLit:
		return TyFloat, nil
	case UnitLit:
		return TyUnit, nil
	case FunLit:
		f, _ := c.prog.Lookup(a.Name)
		if f == nil {
			return Type{}, c.errf("reference to undefined function %q", a.Name)
		}
		return f.Type(), nil
	case nil:
		return Type{}, c.errf("nil atom")
	default:
		return Type{}, c.errf("unknown atom %T", a)
	}
}

func (c *checker) want(a Atom, want Type, ctx string) error {
	t, err := c.atom(a)
	if err != nil {
		return err
	}
	if !t.Equal(want) {
		return c.errf("%s: have %s, want %s", ctx, t, want)
	}
	return nil
}

// callable checks that fn is a function atom whose parameters accept args
// (optionally with extra leading parameter types, used by speculate's c).
func (c *checker) callable(fn Atom, args []Atom, lead *Type, ctx string) error {
	// A direct callee's parameters are read in place: building its
	// function type would allocate per call site.
	var sig calleeSig
	if fl, ok := fn.(FunLit); ok {
		if sig.fn, _ = c.prog.Lookup(fl.Name); sig.fn == nil {
			return c.errf("reference to undefined function %q", fl.Name)
		}
	} else {
		ft, err := c.atom(fn)
		if err != nil {
			return err
		}
		if ft.Kind != KindFun {
			return c.errf("%s: callee has type %s, want a function", ctx, ft)
		}
		sig.typ = ft
	}
	nlead := 0
	if lead != nil {
		nlead = 1
	}
	if n := sig.arity(); n != nlead+len(args) {
		return c.errf("%s: callee takes %d arguments, given %d", ctx, n, nlead+len(args))
	}
	if lead != nil && !sig.param(0).Equal(*lead) {
		return c.errf("%s: implicit argument %d has type %s, callee wants %s", ctx, 0, *lead, sig.param(0))
	}
	for i, a := range args {
		at, err := c.atom(a)
		if err != nil {
			return err
		}
		if want := sig.param(nlead + i); !want.Equal(at) {
			return c.errf("%s: argument %d has type %s, callee wants %s", ctx, i, at, want)
		}
	}
	return nil
}

// calleeSig is a call target's parameter list: a direct callee's, or a
// function-typed value's.
type calleeSig struct {
	fn  *Function
	typ Type
}

func (s calleeSig) arity() int {
	if s.fn != nil {
		return len(s.fn.Params)
	}
	return len(s.typ.Params)
}

func (s calleeSig) param(i int) Type {
	if s.fn != nil {
		return s.fn.Params[i].Type
	}
	return s.typ.Params[i]
}

func (c *checker) expr(e Expr) error {
	for {
		switch e2 := e.(type) {
		case Let:
			sig, ok := sigOf(e2.Op)
			if !ok {
				return c.errf("unknown operator %v", e2.Op)
			}
			if len(e2.Args) != len(sig.args) {
				return c.errf("%s takes %d operands, given %d", e2.Op, len(sig.args), len(e2.Args))
			}
			var moveType Type
			for i, wt := range sig.args {
				at, err := c.atom(e2.Args[i])
				if err != nil {
					return err
				}
				if wt == nil {
					// "any value" operand: store/move payloads. Unit is not
					// a storable value.
					if at.Kind == KindUnit {
						return c.errf("%s operand %d: unit is not a storable value", e2.Op, i)
					}
					moveType = at
					continue
				}
				if !at.Equal(*wt) {
					return c.errf("%s operand %d: have %s, want %s", e2.Op, i, at, *wt)
				}
			}
			var rt Type
			switch {
			case sig.result != nil:
				rt = *sig.result
			case e2.Op == OpMove:
				rt = moveType
			case e2.Op == OpLoad:
				// Result type is declared by the binding; the runtime
				// checks the loaded word's tag against it.
				rt = e2.DstType
				if rt.Kind == KindUnit {
					return c.errf("load destination cannot be unit")
				}
			default:
				return c.errf("operator %s has no result rule", e2.Op)
			}
			if e2.Dst == "" {
				return c.errf("let with empty destination")
			}
			if !rt.Equal(e2.DstType) {
				return c.errf("let %s: operator %s yields %s, binding declares %s", e2.Dst, e2.Op, rt, e2.DstType)
			}
			c.bind(e2.Dst, rt)
			e = e2.Body

		case Extern:
			if c.externs == nil {
				return c.errf("extern %q used but no extern registry supplied", e2.Name)
			}
			sig, ok := c.externs[e2.Name]
			if !ok {
				return c.errf("unknown extern %q (known: %s)", e2.Name, externNames(c.externs))
			}
			if len(e2.Args) != len(sig.Args) {
				return c.errf("extern %q takes %d arguments, given %d", e2.Name, len(sig.Args), len(e2.Args))
			}
			for i, wt := range sig.Args {
				if err := c.want(e2.Args[i], wt, fmt.Sprintf("extern %q argument %d", e2.Name, i)); err != nil {
					return err
				}
			}
			if e2.Dst == "" {
				return c.errf("extern with empty destination")
			}
			if !sig.Result.Equal(e2.DstType) {
				return c.errf("extern %q yields %s, binding declares %s", e2.Name, sig.Result, e2.DstType)
			}
			c.bind(e2.Dst, sig.Result)
			e = e2.Body

		case If:
			if err := c.want(e2.Cond, TyInt, "if condition"); err != nil {
				return err
			}
			// The then arm's bindings are undone before the else arm.
			mark := len(c.undo)
			if err := c.expr(e2.Then); err != nil {
				return err
			}
			c.undoTo(mark)
			e = e2.Else

		case Call:
			return c.callable(e2.Fn, e2.Args, nil, "tail call")

		case Halt:
			return c.want(e2.Code, TyInt, "halt code")

		case Migrate:
			if e2.Label < 0 {
				return c.errf("migrate label %d must be non-negative", e2.Label)
			}
			if err := c.want(e2.Target, TyPtr, "migrate target"); err != nil {
				return err
			}
			if err := c.want(e2.TargetOff, TyInt, "migrate target offset"); err != nil {
				return err
			}
			return c.callable(e2.Fn, e2.Args, nil, "migrate continuation")

		case Speculate:
			// The continuation receives the speculation status c as an
			// implicit leading int argument (§4.3.1).
			return c.callable(e2.Fn, e2.Args, &TyInt, "speculate continuation")

		case Commit:
			if err := c.want(e2.Level, TyInt, "commit level"); err != nil {
				return err
			}
			return c.callable(e2.Fn, e2.Args, nil, "commit continuation")

		case Rollback:
			if err := c.want(e2.Level, TyInt, "rollback level"); err != nil {
				return err
			}
			return c.want(e2.C, TyInt, "rollback c")

		case nil:
			return c.errf("nil expression (missing control transfer)")

		default:
			return c.errf("unknown expression %T", e2)
		}
	}
}

func externNames(externs map[string]ExternSig) string {
	names := make([]string, 0, len(externs))
	for n := range externs {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	if s == "" {
		return "none"
	}
	return s
}

// MigrateLabels returns the migrate labels appearing in the program mapped
// to the name of the function containing them, and an error when a label is
// duplicated. The migration subsystem uses this to validate that a resume
// label in a packed image corresponds to a real migration point.
func MigrateLabels(p *Program) (map[int]string, error) {
	labels := make(map[int]string)
	var walk func(fn string, e Expr) error
	walk = func(fn string, e Expr) error {
		switch e2 := e.(type) {
		case Let:
			return walk(fn, e2.Body)
		case Extern:
			return walk(fn, e2.Body)
		case If:
			if err := walk(fn, e2.Then); err != nil {
				return err
			}
			return walk(fn, e2.Else)
		case Migrate:
			if prev, dup := labels[e2.Label]; dup {
				return fmt.Errorf("fir: migrate label %d duplicated (in %s and %s)", e2.Label, prev, fn)
			}
			labels[e2.Label] = fn
		}
		return nil
	}
	for _, f := range p.Funcs {
		if err := walk(f.Name, f.Body); err != nil {
			return nil, err
		}
	}
	return labels, nil
}
