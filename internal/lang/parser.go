package lang

import "fmt"

// Parse parses minilang source into an AST. file is used for positions.
// The first lexical error anywhere in src wins over a parse error.
func Parse(file, src string) (*File, error) {
	p := &parser{file: file, sc: scanner{src: src, file: file, line: 1}}
	p.tok = p.sc.scan()
	f, err := p.parseFile()
	if err != nil {
		if lerr := p.sc.drain(); lerr != nil {
			return nil, lerr
		}
		return nil, err
	}
	if p.sc.err != nil {
		return nil, p.sc.err
	}
	return f, nil
}

func (p *parser) parseFile() (*File, error) {
	f := &File{Name: p.file}
	for !p.at(tEOF, "") {
		switch {
		case p.at(tKeyword, "class"):
			cd, err := p.classDecl()
			if err != nil {
				return nil, err
			}
			f.Classes = append(f.Classes, cd)
		case p.at(tKeyword, "func"):
			p.next()
			fd, err := p.funcDecl()
			if err != nil {
				return nil, err
			}
			f.Funcs = append(f.Funcs, fd)
		case p.at(tKeyword, "main"):
			line := p.cur().line
			p.next()
			body, err := p.block()
			if err != nil {
				return nil, err
			}
			f.Funcs = append(f.Funcs, &FuncDecl{Name: "main", Body: body, Line: line})
		default:
			return nil, p.errf("expected class, func, or main, got %q", p.cur().text)
		}
	}
	return f, nil
}

// parser is an LL(1) recursive-descent parser: it looks only at the
// current token and pulls the next one from the scanner as it consumes.
type parser struct {
	file string
	sc   scanner
	tok  token
	// stmts stacks the statements of the blocks being parsed, innermost
	// last; each block copies its own out at their exact number.
	stmts []Stmt
	depth int // blocks open, counting each else-if as one
}

// maxDepth caps block nesting. A function body is at depth 1, each block
// inside it one deeper, and an else-if one deeper than its if, whose
// Else holds it. Parsing, lowering, printing and unit extraction recurse
// once per level, and a goroutine stack overflow cannot be recovered, so
// deeper input is a parse error. The cap sits far above real programs:
// the truth corpus nests at most 2 deep, its metamorphic variants 3, and
// the fuzz seeds and corpora 5.
const maxDepth = 1000

func (p *parser) cur() token { return p.tok }

// next consumes and returns the current token; it never advances past EOF,
// so error paths that keep consuming stay in bounds.
func (p *parser) next() token {
	t := p.tok
	if t.kind != tEOF {
		p.tok = p.sc.scan()
	}
	return t
}

func (p *parser) at(k tokKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

func (p *parser) accept(k tokKind, text string) bool {
	if p.at(k, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k tokKind, text string) (token, error) {
	if p.at(k, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = map[tokKind]string{tIdent: "identifier", tInt: "literal"}[k]
	}
	return token{}, p.errf("expected %q, got %q", want, p.cur().text)
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("%s:%d: %s", p.file, p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) classDecl() (*ClassDecl, error) {
	line := p.cur().line
	p.next() // class
	name, err := p.expect(tIdent, "")
	if err != nil {
		return nil, err
	}
	cd := &ClassDecl{Name: name.text, Line: line}
	if p.accept(tKeyword, "extends") {
		sup, err := p.expect(tIdent, "")
		if err != nil {
			return nil, err
		}
		cd.Super = sup.text
	}
	if _, err := p.expect(tPunct, "{"); err != nil {
		return nil, err
	}
	for !p.accept(tPunct, "}") {
		switch {
		case p.at(tKeyword, "static") || p.at(tKeyword, "volatile") || p.at(tKeyword, "field"):
			static, volatile := false, false
			for {
				if p.accept(tKeyword, "static") {
					static = true
					continue
				}
				if p.accept(tKeyword, "volatile") {
					volatile = true
					continue
				}
				break
			}
			if _, err := p.expect(tKeyword, "field"); err != nil {
				return nil, err
			}
			fl, err := p.fieldRest(static, volatile)
			if err != nil {
				return nil, err
			}
			cd.Fields = append(cd.Fields, fl...)
		case p.at(tIdent, "") || p.at(tKeyword, "origin"):
			annotated := p.accept(tKeyword, "origin")
			m, err := p.funcDecl()
			if err != nil {
				return nil, err
			}
			m.Origin = annotated
			if m.Name == cd.Name { // constructor
				m.Name = "init"
			}
			cd.Methods = append(cd.Methods, m)
		default:
			return nil, p.errf("expected member declaration, got %q", p.cur().text)
		}
	}
	return cd, nil
}

func (p *parser) fieldRest(static, volatile bool) ([]FieldDecl, error) {
	var out []FieldDecl
	for {
		name, err := p.expect(tIdent, "")
		if err != nil {
			return nil, err
		}
		out = append(out, FieldDecl{Name: name.text, Static: static, Volatile: volatile, Line: name.line})
		if p.accept(tPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tPunct, ";"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) funcDecl() (*FuncDecl, error) {
	name, err := p.expect(tIdent, "")
	if err != nil {
		return nil, err
	}
	fd := &FuncDecl{Name: name.text, Line: name.line}
	if _, err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	for !p.accept(tPunct, ")") {
		prm, err := p.expect(tIdent, "")
		if err != nil {
			return nil, err
		}
		fd.Params = append(fd.Params, prm.text)
		if !p.at(tPunct, ")") {
			if _, err := p.expect(tPunct, ","); err != nil {
				return nil, err
			}
		}
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

func (p *parser) block() ([]Stmt, error) {
	if _, err := p.expect(tPunct, "{"); err != nil {
		return nil, err
	}
	if p.depth++; p.depth > maxDepth {
		return nil, p.errf("blocks nested more than %d deep", maxDepth)
	}
	mark := len(p.stmts)
	for !p.accept(tPunct, "}") {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, s)
	}
	out := append([]Stmt(nil), p.stmts[mark:]...)
	p.stmts = p.stmts[:mark]
	p.depth--
	return out, nil
}

func (p *parser) stmt() (Stmt, error) {
	line := p.cur().line
	switch {
	case p.at(tKeyword, "sync"):
		p.next()
		if _, err := p.expect(tPunct, "("); err != nil {
			return nil, err
		}
		obj, err := p.expect(tIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &SyncStmt{stmtBase{line}, obj.text, body}, nil

	case p.at(tKeyword, "if"):
		p.next()
		if err := p.skipBalanced("(", ")"); err != nil {
			return nil, err
		}
		then, err := p.block()
		if err != nil {
			return nil, err
		}
		st := &IfStmt{stmtBase: stmtBase{line}, Then: then}
		if p.accept(tKeyword, "else") {
			if p.at(tKeyword, "if") {
				p.depth++
				es, err := p.stmt()
				if err != nil {
					return nil, err
				}
				p.depth--
				st.Else = []Stmt{es}
			} else {
				els, err := p.block()
				if err != nil {
					return nil, err
				}
				st.Else = els
			}
		}
		return st, nil

	case p.at(tKeyword, "while"):
		p.next()
		if err := p.skipBalanced("(", ")"); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{stmtBase{line}, body}, nil

	case p.at(tKeyword, "select"):
		p.next()
		if _, err := p.expect(tPunct, "{"); err != nil {
			return nil, err
		}
		st := &SelectStmt{stmtBase: stmtBase{line}}
		for !p.accept(tPunct, "}") {
			if p.at(tKeyword, "default") {
				if st.HasDefault {
					return nil, p.errf("duplicate default arm")
				}
				p.next()
				body, err := p.block()
				if err != nil {
					return nil, err
				}
				st.Default, st.HasDefault = body, true
				continue
			}
			armLine := p.cur().line
			op, err := p.expect(tIdent, "")
			if err != nil {
				return nil, err
			}
			arm := SelectArm{Line: armLine}
			switch op.text {
			case "recv":
				if _, err := p.expect(tPunct, "("); err != nil {
					return nil, err
				}
				ch, err := p.expect(tIdent, "")
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tPunct, ")"); err != nil {
					return nil, err
				}
				arm.Ch = ch.text
			case "send":
				arm.Send = true
				if _, err := p.expect(tPunct, "("); err != nil {
					return nil, err
				}
				ch, err := p.expect(tIdent, "")
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tPunct, ","); err != nil {
					return nil, err
				}
				v, err := p.operand()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tPunct, ")"); err != nil {
					return nil, err
				}
				arm.Ch, arm.Val = ch.text, v
			default:
				return nil, p.errf("expected recv, send, or default select arm, got %q", op.text)
			}
			body, err := p.block()
			if err != nil {
				return nil, err
			}
			arm.Body = body
			st.Arms = append(st.Arms, arm)
		}
		return st, nil

	case p.at(tKeyword, "return"):
		p.next()
		st := &ReturnStmt{stmtBase: stmtBase{line}}
		if !p.at(tPunct, ";") {
			e, err := p.operand()
			if err != nil {
				return nil, err
			}
			st.Val = e
		}
		if _, err := p.expect(tPunct, ";"); err != nil {
			return nil, err
		}
		return st, nil

	case p.at(tKeyword, "super"):
		p.next()
		args, err := p.args()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ";"); err != nil {
			return nil, err
		}
		return &CallStmt{stmtBase{line}, &CallExpr{Recv: "this", Method: "$super", Args: args}}, nil

	case p.at(tIdent, ""):
		return p.assignOrCall(line)
	}
	return nil, p.errf("expected statement, got %q", p.cur().text)
}

func (p *parser) assignOrCall(line int) (Stmt, error) {
	base := p.next().text
	switch {
	case p.accept(tPunct, "."):
		name, err := p.expect(tIdent, "")
		if err != nil {
			return nil, err
		}
		if p.at(tPunct, "(") {
			args, err := p.args()
			if err != nil {
				return nil, err
			}
			call := &CallExpr{Recv: base, Method: name.text, Args: args}
			if _, err := p.expect(tPunct, ";"); err != nil {
				return nil, err
			}
			return &CallStmt{stmtBase{line}, call}, nil
		}
		lhs := FieldRef{base, name.text}
		return p.finishAssign(line, lhs)
	case p.at(tPunct, "["):
		if err := p.skipBalanced("[", "]"); err != nil {
			return nil, err
		}
		return p.finishAssign(line, IndexRef{base})
	case p.at(tPunct, "("):
		args, err := p.args()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ";"); err != nil {
			return nil, err
		}
		return &CallStmt{stmtBase{line}, &CallExpr{Method: base, Args: args}}, nil
	default:
		return p.finishAssign(line, VarRef{base})
	}
}

func (p *parser) finishAssign(line int, lhs LValue) (Stmt, error) {
	if _, err := p.expect(tPunct, "="); err != nil {
		return nil, err
	}
	rhs, err := p.rhs()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tPunct, ";"); err != nil {
		return nil, err
	}
	return &AssignStmt{stmtBase{line}, lhs, rhs}, nil
}

func (p *parser) rhs() (Expr, error) {
	switch {
	case p.at(tPunct, "&"):
		p.next()
		name, err := p.expect(tIdent, "")
		if err != nil {
			return nil, err
		}
		return FuncAddrExpr{name.text}, nil
	case p.at(tKeyword, "new"):
		p.next()
		cls, err := p.expect(tIdent, "")
		if err != nil {
			return nil, err
		}
		args, err := p.args()
		if err != nil {
			return nil, err
		}
		return &NewExpr{cls.text, args}, nil
	case p.at(tKeyword, "null"):
		p.next()
		return NullLit{}, nil
	case p.at(tInt, ""):
		return IntLit{p.next().text}, nil
	case p.at(tIdent, ""):
		base := p.next().text
		switch {
		case p.accept(tPunct, "."):
			name, err := p.expect(tIdent, "")
			if err != nil {
				return nil, err
			}
			if p.at(tPunct, "(") {
				args, err := p.args()
				if err != nil {
					return nil, err
				}
				return &CallExpr{Recv: base, Method: name.text, Args: args}, nil
			}
			return FieldRef{base, name.text}, nil
		case p.at(tPunct, "["):
			if err := p.skipBalanced("[", "]"); err != nil {
				return nil, err
			}
			return IndexRef{base}, nil
		case p.at(tPunct, "("):
			args, err := p.args()
			if err != nil {
				return nil, err
			}
			return &CallExpr{Method: base, Args: args}, nil
		default:
			return VarRef{base}, nil
		}
	}
	return nil, p.errf("expected expression, got %q", p.cur().text)
}

func (p *parser) operand() (Expr, error) {
	switch {
	case p.at(tKeyword, "null"):
		p.next()
		return NullLit{}, nil
	case p.at(tInt, ""):
		return IntLit{p.next().text}, nil
	case p.at(tIdent, ""):
		return VarRef{p.next().text}, nil
	}
	return nil, p.errf("expected operand, got %q", p.cur().text)
}

func (p *parser) args() ([]Expr, error) {
	if _, err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	var out []Expr
	for !p.accept(tPunct, ")") {
		e, err := p.operand()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !p.at(tPunct, ")") {
			if _, err := p.expect(tPunct, ","); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// skipBalanced consumes an open token and everything up to its matching
// close token; used for (ignored) conditions and array indices.
func (p *parser) skipBalanced(open, close string) error {
	if _, err := p.expect(tPunct, open); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		t := p.next()
		switch {
		case t.kind == tEOF:
			return p.errf("unbalanced %q", open)
		case t.kind == tPunct && t.text == open:
			depth++
		case t.kind == tPunct && t.text == close:
			depth--
		}
	}
	return nil
}
