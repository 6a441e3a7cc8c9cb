package lang

import (
	"strconv"
	"strings"
	"unicode"

	"repro/internal/fir"
)

// MCC is a multi-language compiler: the paper's frontends are C, Pascal,
// ML and Java, all lowered to the same FIR. This file implements MojPascal
// — a Pascal dialect with the same primitives — as a second frontend. It
// parses into the shared AST, so semantic analysis and CPS lowering are
// reused verbatim; only the concrete syntax differs.
//
// Dialect summary:
//
//	function fact(n: integer): integer;
//	var acc: integer;
//	begin
//	  if n <= 1 then begin fact := 1; exit; end;
//	  fact := n * fact(n - 1);
//	end;
//
//	procedure shout(v: integer);
//	begin print_int(v * 2); end;
//
// Types: integer, real, pointer (integer words), fpointer (real words).
// The function result is assigned to the function's name (or `result`);
// `exit` returns early. Loops: while..do, for i := a to b do, repeat-less.
// Relational: = <> < <= > >=; arithmetic: + - * div mod (integers), / on
// reals; boolean: and, or, not over integers; true/false are 1/0.
// Speculation/migration builtins are the same identifiers as MojC.

// CompilePascal translates MojPascal source into a type-checked FIR
// program against the given extern signatures.
func CompilePascal(src string, externs map[string]fir.ExternSig) (*fir.Program, error) {
	ast, err := parsePascal(src)
	if err != nil {
		return nil, err
	}
	return compile(ast, externs)
}

// Pascal lexer. Pascal is case-insensitive for keywords; we lowercase
// identifiers that match keywords but preserve user identifiers.

var pascalKeywords = map[string]bool{
	"function": true, "procedure": true, "var": true, "begin": true,
	"end": true, "if": true, "then": true, "else": true, "while": true,
	"do": true, "for": true, "to": true, "downto": true, "exit": true,
	"break": true, "continue": true, "integer": true, "real": true,
	"pointer": true, "fpointer": true, "and": true, "or": true,
	"not": true, "div": true, "mod": true, "true": true, "false": true,
}

var pascalPuncts = []string{
	":=", "<=", ">=", "<>", "+", "-", "*", "/", "=", "<", ">",
	"(", ")", "[", "]", ",", ";", ":",
}

func lexPascal(src string) ([]Token, error) {
	runes := []rune(src)
	pos, line, col := 0, 1, 1
	adv := func() rune {
		r := runes[pos]
		pos++
		if r == '\n' {
			line++
			col = 1
		} else {
			col++
		}
		return r
	}
	peek := func(i int) rune {
		if pos+i >= len(runes) {
			return 0
		}
		return runes[pos+i]
	}
	var toks []Token
	for {
		// Skip spaces and comments: { ... }, (* ... *), // line.
		for pos < len(runes) {
			switch {
			case unicode.IsSpace(peek(0)):
				adv()
			case peek(0) == '{':
				l0, c0 := line, col
				adv()
				closed := false
				for pos < len(runes) {
					if adv() == '}' {
						closed = true
						break
					}
				}
				if !closed {
					return nil, errf(l0, c0, "unterminated { comment")
				}
			case peek(0) == '(' && peek(1) == '*':
				l0, c0 := line, col
				adv()
				adv()
				closed := false
				for pos < len(runes) {
					if peek(0) == '*' && peek(1) == ')' {
						adv()
						adv()
						closed = true
						break
					}
					adv()
				}
				if !closed {
					return nil, errf(l0, c0, "unterminated (* comment")
				}
			case peek(0) == '/' && peek(1) == '/':
				for pos < len(runes) && peek(0) != '\n' {
					adv()
				}
			default:
				goto token
			}
		}
	token:
		l0, c0 := line, col
		if pos >= len(runes) {
			toks = append(toks, Token{Kind: TokEOF, Line: l0, Col: c0})
			return toks, nil
		}
		r := peek(0)
		switch {
		case unicode.IsLetter(r) || r == '_':
			var b strings.Builder
			for pos < len(runes) && (unicode.IsLetter(peek(0)) || unicode.IsDigit(peek(0)) || peek(0) == '_') {
				b.WriteRune(adv())
			}
			word := b.String()
			lw := strings.ToLower(word)
			if pascalKeywords[lw] {
				toks = append(toks, Token{Kind: TokKeyword, Text: lw, Line: l0, Col: c0})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Line: l0, Col: c0})
			}
		case unicode.IsDigit(r):
			var b strings.Builder
			isReal := false
			for pos < len(runes) {
				c := peek(0)
				if unicode.IsDigit(c) {
					b.WriteRune(adv())
				} else if c == '.' && !isReal && unicode.IsDigit(peek(1)) {
					isReal = true
					b.WriteRune(adv())
				} else {
					break
				}
			}
			if isReal {
				f, err := strconv.ParseFloat(b.String(), 64)
				if err != nil {
					return nil, errf(l0, c0, "bad real literal %q", b.String())
				}
				toks = append(toks, Token{Kind: TokFloat, Text: b.String(), FloatVal: f, Line: l0, Col: c0})
			} else {
				v, err := strconv.ParseInt(b.String(), 10, 64)
				if err != nil {
					return nil, errf(l0, c0, "bad integer literal %q", b.String())
				}
				toks = append(toks, Token{Kind: TokInt, Text: b.String(), IntVal: v, Line: l0, Col: c0})
			}
		case r == '\'':
			// Pascal string literal: 'text''with quotes'.
			adv()
			var b strings.Builder
			for {
				if pos >= len(runes) {
					return nil, errf(l0, c0, "unterminated string literal")
				}
				c := adv()
				if c == '\'' {
					if peek(0) == '\'' {
						adv()
						b.WriteRune('\'')
						continue
					}
					break
				}
				b.WriteRune(c)
			}
			toks = append(toks, Token{Kind: TokString, Text: b.String(), StrVal: b.String(), Line: l0, Col: c0})
		default:
			matched := false
			for _, p := range pascalPuncts {
				if strings.HasPrefix(string(runes[pos:]), p) {
					for range p {
						adv()
					}
					toks = append(toks, Token{Kind: TokPunct, Text: p, Line: l0, Col: c0})
					matched = true
					break
				}
			}
			if !matched {
				return nil, errf(l0, c0, "unexpected character %q", r)
			}
		}
	}
}

// pparser is a recursive-descent parser for MojPascal producing the shared
// AST.
type pparser struct {
	toks   []Token
	pos    int
	fnName string // current function, for `fname := e` result assignment
	hasRes bool   // current decl is a function (not a procedure)
}

// resultVar is the synthetic local holding a Pascal function's result.
const resultVar = "__result"

func parsePascal(src string) (*Program, error) {
	toks, err := lexPascal(src)
	if err != nil {
		return nil, err
	}
	p := &pparser{toks: toks}
	prog := &Program{}
	for !p.at(TokEOF, "") {
		fn, err := p.decl()
		if err != nil {
			return nil, err
		}
		prog.Funcs = append(prog.Funcs, fn)
	}
	return prog, nil
}

func (p *pparser) cur() Token  { return p.toks[p.pos] }
func (p *pparser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *pparser) at(kind TokKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *pparser) accept(kind TokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *pparser) expect(kind TokKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	t := p.cur()
	want := text
	if want == "" && kind == TokIdent {
		want = "identifier"
	}
	return t, errf(t.Line, t.Col, "expected %q, found %s", want, t)
}

func (p *pparser) typeName() (Type, bool) {
	t := p.cur()
	if t.Kind != TokKeyword {
		return 0, false
	}
	switch t.Text {
	case "integer":
		return TInt, true
	case "real":
		return TFloat, true
	case "pointer":
		return TPtr, true
	case "fpointer":
		return TFptr, true
	}
	return 0, false
}

// decl parses `function f(a: integer; b, c: real): integer; var ...;
// begin ... end;` or a procedure.
func (p *pparser) decl() (*FuncDecl, error) {
	t := p.cur()
	isFunc := p.accept(TokKeyword, "function")
	if !isFunc {
		if !p.accept(TokKeyword, "procedure") {
			return nil, errf(t.Line, t.Col, "expected function or procedure, found %s", t)
		}
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	fn := &FuncDecl{P: pos{t.Line, t.Col}, Name: name.Text, Ret: TVoid}

	if p.accept(TokPunct, "(") && !p.accept(TokPunct, ")") {
		for {
			var group []string
			for {
				id, err := p.expect(TokIdent, "")
				if err != nil {
					return nil, err
				}
				group = append(group, id.Text)
				if !p.accept(TokPunct, ",") {
					break
				}
			}
			if _, err := p.expect(TokPunct, ":"); err != nil {
				return nil, err
			}
			pt := p.cur()
			ptype, ok := p.typeName()
			if !ok {
				return nil, errf(pt.Line, pt.Col, "expected parameter type, found %s", pt)
			}
			p.next()
			for _, g := range group {
				fn.Params = append(fn.Params, Param{Type: ptype, Name: g})
			}
			if p.accept(TokPunct, ")") {
				break
			}
			if _, err := p.expect(TokPunct, ";"); err != nil {
				return nil, err
			}
		}
	}
	if isFunc {
		if _, err := p.expect(TokPunct, ":"); err != nil {
			return nil, err
		}
		rt := p.cur()
		ret, ok := p.typeName()
		if !ok {
			return nil, errf(rt.Line, rt.Col, "expected return type, found %s", rt)
		}
		p.next()
		fn.Ret = ret
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}

	// var sections.
	var vars []Stmt
	for p.accept(TokKeyword, "var") {
		for p.at(TokIdent, "") {
			var group []string
			for {
				id, err := p.expect(TokIdent, "")
				if err != nil {
					return nil, err
				}
				group = append(group, id.Text)
				if !p.accept(TokPunct, ",") {
					break
				}
			}
			if _, err := p.expect(TokPunct, ":"); err != nil {
				return nil, err
			}
			vt := p.cur()
			vtype, ok := p.typeName()
			if !ok {
				return nil, errf(vt.Line, vt.Col, "expected type, found %s", vt)
			}
			p.next()
			if _, err := p.expect(TokPunct, ";"); err != nil {
				return nil, err
			}
			for _, g := range group {
				vars = append(vars, &DeclStmt{P: pos{vt.Line, vt.Col}, Type: vtype, Name: g})
			}
		}
	}

	p.fnName, p.hasRes = fn.Name, isFunc
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}

	// Assemble: result declaration, user vars, body, implicit return.
	var stmts []Stmt
	if isFunc {
		stmts = append(stmts, &DeclStmt{P: fn.P, Type: fn.Ret, Name: resultVar})
	}
	stmts = append(stmts, vars...)
	stmts = append(stmts, body...)
	if isFunc {
		stmts = append(stmts, &ReturnStmt{P: fn.P, Val: &Ident{P: fn.P, Name: resultVar}})
	}
	fn.Body = stmts
	return fn, nil
}

// block parses begin ... end.
func (p *pparser) block() ([]Stmt, error) {
	if _, err := p.expect(TokKeyword, "begin"); err != nil {
		return nil, err
	}
	var out []Stmt
	for {
		if p.accept(TokKeyword, "end") {
			return out, nil
		}
		if p.at(TokEOF, "") {
			t := p.cur()
			return nil, errf(t.Line, t.Col, "unexpected end of file inside begin/end")
		}
		if p.accept(TokPunct, ";") {
			continue // empty statement
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.at(TokKeyword, "end") {
			if _, err := p.expect(TokPunct, ";"); err != nil {
				return nil, err
			}
		}
	}
}

// stmtOrBlock parses either a begin..end block or a single statement.
func (p *pparser) stmtOrBlock() ([]Stmt, error) {
	if p.at(TokKeyword, "begin") {
		return p.block()
	}
	s, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return []Stmt{s}, nil
}

func (p *pparser) stmt() (Stmt, error) {
	t := p.cur()
	switch {
	case p.at(TokKeyword, "begin"):
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &BlockStmt{P: pos{t.Line, t.Col}, Body: body}, nil

	case p.accept(TokKeyword, "if"):
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "then"); err != nil {
			return nil, err
		}
		then, err := p.stmtOrBlock()
		if err != nil {
			return nil, err
		}
		st := &IfStmt{P: pos{t.Line, t.Col}, Cond: cond, Then: then}
		if p.accept(TokKeyword, "else") {
			els, err := p.stmtOrBlock()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
		return st, nil

	case p.accept(TokKeyword, "while"):
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "do"); err != nil {
			return nil, err
		}
		body, err := p.stmtOrBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{P: pos{t.Line, t.Col}, Cond: cond, Body: body}, nil

	case p.accept(TokKeyword, "for"):
		id, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ":="); err != nil {
			return nil, err
		}
		from, err := p.expr()
		if err != nil {
			return nil, err
		}
		down := false
		if p.accept(TokKeyword, "downto") {
			down = true
		} else if _, err := p.expect(TokKeyword, "to"); err != nil {
			return nil, err
		}
		limit, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "do"); err != nil {
			return nil, err
		}
		body, err := p.stmtOrBlock()
		if err != nil {
			return nil, err
		}
		// Desugar to the shared ForStmt. The loop variable comes from the
		// var section (Pascal requires it declared).
		pp := pos{t.Line, t.Col}
		cmp, step := "<=", "+"
		if down {
			cmp, step = ">=", "-"
		}
		return &ForStmt{
			P:    pp,
			Init: &AssignStmt{P: pp, Name: id.Text, Val: from},
			Cond: &Binary{P: pp, Op: cmp, L: &Ident{P: pp, Name: id.Text}, R: limit},
			Post: &AssignStmt{P: pp, Name: id.Text, Op: step, Val: &IntLit{P: pp, V: 1}},
			Body: body,
		}, nil

	case p.accept(TokKeyword, "exit"):
		pp := pos{t.Line, t.Col}
		if p.hasRes {
			return &ReturnStmt{P: pp, Val: &Ident{P: pp, Name: resultVar}}, nil
		}
		return &ReturnStmt{P: pp}, nil

	case p.accept(TokKeyword, "break"):
		return &BreakStmt{P: pos{t.Line, t.Col}}, nil
	case p.accept(TokKeyword, "continue"):
		return &ContinueStmt{P: pos{t.Line, t.Col}}, nil

	default:
		// Assignment, store, or call.
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		pp := pos{t.Line, t.Col}
		if p.accept(TokPunct, ":=") {
			val, err := p.expr()
			if err != nil {
				return nil, err
			}
			switch lhs := x.(type) {
			case *Ident:
				name := lhs.Name
				if p.hasRes && name == p.fnName {
					name = resultVar // `fname := e` sets the result
				}
				return &AssignStmt{P: pp, Name: name, Val: val}, nil
			case *Index:
				return &StoreStmt{P: pp, Base: lhs.Base, Idx: lhs.Idx, Val: val}, nil
			default:
				return nil, errf(pp.Line, pp.Col, "left side of := must be a variable or p[i]")
			}
		}
		if _, ok := x.(*Call); !ok {
			return nil, errf(pp.Line, pp.Col, "expression used as a statement must be a call")
		}
		return &ExprStmt{P: pp, X: x}, nil
	}
}

// Pascal expression precedence: or < and < relational < additive <
// multiplicative < unary.
func (p *pparser) expr() (Expr, error) { return p.orExpr() }

func (p *pparser) orExpr() (Expr, error) {
	lhs, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.at(TokKeyword, "or") {
		t := p.next()
		rhs, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		lhs = &Binary{P: pos{t.Line, t.Col}, Op: "||", L: lhs, R: rhs}
	}
	return lhs, nil
}

func (p *pparser) andExpr() (Expr, error) {
	lhs, err := p.relExpr()
	if err != nil {
		return nil, err
	}
	for p.at(TokKeyword, "and") {
		t := p.next()
		rhs, err := p.relExpr()
		if err != nil {
			return nil, err
		}
		lhs = &Binary{P: pos{t.Line, t.Col}, Op: "&&", L: lhs, R: rhs}
	}
	return lhs, nil
}

var pascalRelOps = map[string]string{"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

func (p *pparser) relExpr() (Expr, error) {
	lhs, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokPunct {
		if op, ok := pascalRelOps[t.Text]; ok {
			p.next()
			rhs, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &Binary{P: pos{t.Line, t.Col}, Op: op, L: lhs, R: rhs}, nil
		}
	}
	return lhs, nil
}

func (p *pparser) addExpr() (Expr, error) {
	lhs, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.at(TokPunct, "+") || p.at(TokPunct, "-") {
		t := p.next()
		rhs, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		lhs = &Binary{P: pos{t.Line, t.Col}, Op: t.Text, L: lhs, R: rhs}
	}
	return lhs, nil
}

func (p *pparser) mulExpr() (Expr, error) {
	lhs, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		var op string
		switch {
		case p.at(TokPunct, "*"):
			op = "*"
		case p.at(TokPunct, "/"):
			op = "/"
		case p.at(TokKeyword, "div"):
			op = "/"
		case p.at(TokKeyword, "mod"):
			op = "%"
		default:
			return lhs, nil
		}
		p.next()
		rhs, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		lhs = &Binary{P: pos{t.Line, t.Col}, Op: op, L: lhs, R: rhs}
	}
}

func (p *pparser) unaryExpr() (Expr, error) {
	t := p.cur()
	if p.accept(TokKeyword, "not") {
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &Unary{P: pos{t.Line, t.Col}, Op: "!", X: x}, nil
	}
	if p.accept(TokPunct, "-") {
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &Unary{P: pos{t.Line, t.Col}, Op: "-", X: x}, nil
	}
	return p.postfixExpr()
}

func (p *pparser) postfixExpr() (Expr, error) {
	x, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if p.accept(TokPunct, "[") {
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
			x = &Index{P: pos{t.Line, t.Col}, Base: x, Idx: idx}
			continue
		}
		return x, nil
	}
}

func (p *pparser) primaryExpr() (Expr, error) {
	t := p.cur()
	pp := pos{t.Line, t.Col}
	switch {
	case t.Kind == TokInt:
		p.next()
		return &IntLit{P: pp, V: t.IntVal}, nil
	case t.Kind == TokFloat:
		p.next()
		return &FloatLit{P: pp, V: t.FloatVal}, nil
	case t.Kind == TokString:
		p.next()
		return &StrLit{P: pp, V: t.StrVal}, nil
	case t.Kind == TokKeyword && t.Text == "true":
		p.next()
		return &IntLit{P: pp, V: 1}, nil
	case t.Kind == TokKeyword && t.Text == "false":
		p.next()
		return &IntLit{P: pp, V: 0}, nil
	case t.Kind == TokKeyword && (t.Text == "integer" || t.Text == "real"):
		// Casts: integer(e), real(e) map to the shared int()/float().
		p.next()
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		a, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		name := "int"
		if t.Text == "real" {
			name = "float"
		}
		return &Call{P: pp, Name: name, Args: []Expr{a}}, nil
	case t.Kind == TokIdent:
		p.next()
		if p.accept(TokPunct, "(") {
			call := &Call{P: pp, Name: t.Text}
			if !p.accept(TokPunct, ")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if p.accept(TokPunct, ")") {
						break
					}
					if _, err := p.expect(TokPunct, ","); err != nil {
						return nil, err
					}
				}
			}
			return call, nil
		}
		return &Ident{P: pp, Name: t.Text}, nil
	case p.accept(TokPunct, "("):
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return x, nil
	default:
		return nil, errf(t.Line, t.Col, "expected expression, found %s", t)
	}
}
