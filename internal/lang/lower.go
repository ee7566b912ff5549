package lang

import (
	"fmt"
	"sort"
	"strconv"

	"o2/internal/ir"
)

// Compile parses and lowers a single minilang source into a finalized IR
// program ready for analysis.
func Compile(file, src string, entries ir.EntryConfig) (*ir.Program, error) {
	return CompileFiles(map[string]string{file: src}, entries)
}

// CompileFiles parses and lowers several minilang sources into one program.
func CompileFiles(files map[string]string, entries ir.EntryConfig) (*ir.Program, error) {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	var asts []*File
	for _, n := range names {
		f, err := Parse(n, files[n])
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	sh, err := Declare(asts, entries)
	if err != nil {
		return nil, err
	}
	for _, f := range asts {
		for _, cd := range f.Classes {
			for _, md := range cd.Methods {
				if err := sh.LowerMethod(f.Name, cd.Name, md); err != nil {
					return nil, err
				}
			}
		}
		for _, fd := range f.Funcs {
			if err := sh.LowerFunc(f.Name, fd); err != nil {
				return nil, err
			}
		}
	}
	if err := sh.prog.Finalize(entries); err != nil {
		return nil, err
	}
	return sh.prog, nil
}

type lowerer struct {
	*Shell
	file string
	tmp  int // per-body temp counter (reset in lowerBody)
}

func (lw *lowerer) lowerBody(fn *ir.Func, fd *FuncDecl) error {
	// Temps are numbered per body, not per program, so that a body
	// lowered in isolation (incremental per-unit compilation) is
	// instruction-identical to the same body lowered as part of the
	// whole program. Variable identity is per-function in the IR, so
	// reusing $t1 across bodies never collides.
	lw.tmp = 0
	// The body grows in the shell's reusable buffer and keeps an exactly
	// sized copy, which spares it append's doubling.
	fn.Body = append(lw.body[:0], fn.Body...)
	b := ir.NewB(fn)
	b.At(ir.Pos{File: lw.file, Line: fd.Line})
	err := lw.stmts(b, fd.Body)
	lw.body, fn.Body = fn.Body, append([]ir.Instr(nil), fn.Body...)
	return err
}

func (lw *lowerer) stmts(b *ir.B, ss []Stmt) error {
	for _, s := range ss {
		if err := lw.stmt(b, s); err != nil {
			return err
		}
	}
	return nil
}

func (lw *lowerer) stmt(b *ir.B, s Stmt) error {
	b.Line(s.stmtLine())
	switch s := s.(type) {
	case *AssignStmt:
		return lw.assign(b, s)
	case *CallStmt:
		return lw.call(b, "", s.Call, s.Line)
	case *SyncStmt:
		b.Lock(s.Obj)
		if err := lw.stmts(b, s.Body); err != nil {
			return err
		}
		b.Line(s.Line).Unlock(s.Obj)
		return nil
	case *IfStmt:
		// Both branches are retained in sequence: sound for the
		// flow-insensitive pointer analysis and an over-approximation of
		// the access trace for the SHB graph.
		if err := lw.stmts(b, s.Then); err != nil {
			return err
		}
		return lw.stmts(b, s.Else)
	case *WhileStmt:
		var err error
		b.InLoop(func() { err = lw.stmts(b, s.Body) })
		return err
	case *SelectStmt:
		// Ops-first lowering: every arm's guard operation is emitted (in
		// arm order) before any arm body, then the bodies in arm order,
		// then the default body. Flow-insensitively every guard may fire
		// (nondeterministic handler dispatch, like event-loop origins),
		// and keeping the guard ops adjacent — no data access interleaves
		// them — makes the canonical race set invariant under arm
		// permutation.
		for _, arm := range s.Arms {
			b.Line(arm.Line)
			if arm.Send {
				val := lw.operands(b, []Expr{arm.Val})[0]
				b.Send(arm.Ch, val)
			} else {
				b.Recv("", arm.Ch)
			}
		}
		for _, arm := range s.Arms {
			if err := lw.stmts(b, arm.Body); err != nil {
				return err
			}
		}
		return lw.stmts(b, s.Default)
	case *ReturnStmt:
		switch v := s.Val.(type) {
		case nil:
			b.Ret("")
		case VarRef:
			b.Ret(v.Name)
		default:
			b.Ret("") // literal returns carry no pointers
		}
		return nil
	}
	return fmt.Errorf("%s:%d: unhandled statement %T", lw.file, s.stmtLine(), s)
}

func (lw *lowerer) assign(b *ir.B, s *AssignStmt) error {
	// Evaluate the RHS into a variable name.
	var src string
	switch rhs := s.Rhs.(type) {
	case VarRef:
		src = rhs.Name
	case NullLit:
		src = "$null"
	case IntLit:
		src = lw.temp() // opaque literal: a fresh variable with empty points-to
	case FieldRef:
		src = lw.temp()
		if lw.isClass(rhs.Base) {
			b.LoadStatic(src, lw.prog.Classes[rhs.Base], rhs.Field)
		} else {
			b.Load(src, rhs.Base, rhs.Field)
		}
	case IndexRef:
		src = lw.temp()
		b.LoadIdx(src, rhs.Base)
	case *NewExpr:
		src = lw.temp()
		cls := lw.prog.Class(rhs.Class) // auto-declare library classes
		b.New(src, cls, lw.operands(b, rhs.Args)...)
	case *CallExpr:
		src = lw.temp()
		if err := lw.call(b, src, rhs, s.Line); err != nil {
			return err
		}
	case StaticRef:
		src = lw.temp()
		b.LoadStatic(src, lw.prog.Classes[rhs.Class], rhs.Field)
	case FuncAddrExpr:
		fn := lw.freeFns[rhs.Name]
		if fn == nil {
			return fmt.Errorf("%s:%d: &%s: no such function", lw.file, s.Line, rhs.Name)
		}
		src = lw.temp()
		b.AddrOf(src, fn)
	default:
		return fmt.Errorf("%s:%d: unhandled rhs %T", lw.file, s.Line, rhs)
	}

	switch lhs := s.Lhs.(type) {
	case VarRef:
		b.Copy(lhs.Name, src)
	case FieldRef:
		if lw.isClass(lhs.Base) {
			b.StoreStatic(lw.prog.Classes[lhs.Base], lhs.Field, src)
		} else {
			b.Store(lhs.Base, lhs.Field, src)
		}
	case IndexRef:
		b.StoreIdx(lhs.Base, src)
	case StaticRef:
		b.StoreStatic(lw.prog.Classes[lhs.Class], lhs.Field, src)
	default:
		return fmt.Errorf("%s:%d: unhandled lhs %T", lw.file, s.Line, lhs)
	}
	return nil
}

func (lw *lowerer) call(b *ir.B, dst string, c *CallExpr, line int) error {
	args := lw.operands(b, c.Args)
	if c.Method == "$super" {
		cls := b.F.Class
		if cls == nil || cls.Super == nil {
			return fmt.Errorf("%s:%d: super() outside a subclass constructor", lw.file, line)
		}
		init := cls.Super.Lookup("init")
		if init == nil {
			return fmt.Errorf("%s:%d: superclass %s has no constructor", lw.file, line, cls.Super.Name)
		}
		b.SuperCall(init, args...)
		return nil
	}
	if c.Recv == "" {
		switch c.Method {
		case "pthread_create":
			// handle = pthread_create(fp, arg): fp must be a function
			// pointer variable or &name.
			if len(args) != 2 {
				return fmt.Errorf("%s:%d: pthread_create expects (fp, arg)", lw.file, line)
			}
			if dst == "" {
				dst = lw.temp()
			}
			b.PthreadCreate(dst, args[0], args[1])
			return nil
		case "pthread_join":
			if len(args) != 1 {
				return fmt.Errorf("%s:%d: pthread_join expects (handle)", lw.file, line)
			}
			b.PthreadJoin(args[0])
			return nil
		case "event_register":
			if len(args) != 2 {
				return fmt.Errorf("%s:%d: event_register expects (fp, arg)", lw.file, line)
			}
			b.EventRegister(args[0], args[1])
			return nil
		case "chan":
			// c = chan(cap): cap must be a non-negative integer literal;
			// chan() is unbuffered.
			capacity := 0
			switch len(c.Args) {
			case 0:
			case 1:
				lit, ok := c.Args[0].(IntLit)
				if !ok {
					return fmt.Errorf("%s:%d: chan capacity must be an integer literal", lw.file, line)
				}
				n, err := strconv.Atoi(lit.Text)
				if err != nil || n < 0 {
					return fmt.Errorf("%s:%d: bad chan capacity %q", lw.file, line, lit.Text)
				}
				capacity = n
			default:
				return fmt.Errorf("%s:%d: chan expects at most one capacity argument", lw.file, line)
			}
			if dst == "" {
				dst = lw.temp()
			}
			b.ChanMake(dst, capacity)
			return nil
		case "send":
			if len(args) != 2 {
				return fmt.Errorf("%s:%d: send expects (chan, value)", lw.file, line)
			}
			b.Send(args[0], args[1])
			return nil
		case "recv":
			if len(args) != 1 {
				return fmt.Errorf("%s:%d: recv expects (chan)", lw.file, line)
			}
			b.Recv(dst, args[0])
			return nil
		case "close":
			if len(args) != 1 {
				return fmt.Errorf("%s:%d: close expects (chan)", lw.file, line)
			}
			b.CloseChan(args[0])
			return nil
		}
		// pthread mutexes and the paper's "customized locks through
		// configurations": configured free-function names lower straight
		// to monitor operations on their first argument.
		if lw.entries.IsLockFunc(c.Method) && len(args) == 1 {
			b.Lock(args[0])
			return nil
		}
		if lw.entries.IsUnlockFunc(c.Method) && len(args) == 1 {
			b.Unlock(args[0])
			return nil
		}
		if fn := lw.freeFns[c.Method]; fn != nil {
			b.CallStatic(dst, fn, args...)
			return nil
		}
		// Not a declared function: an indirect call through a function
		// pointer variable of that name.
		b.CallIndirect(dst, c.Method, args...)
		return nil
	}
	if lw.isClass(c.Recv) {
		return fmt.Errorf("%s:%d: static method calls are not supported (%s.%s)", lw.file, line, c.Recv, c.Method)
	}
	b.Call(dst, c.Recv, c.Method, args...)
	return nil
}

func (lw *lowerer) operands(b *ir.B, es []Expr) []string {
	out := make([]string, len(es))
	for i, e := range es {
		switch e := e.(type) {
		case VarRef:
			out[i] = e.Name
		case NullLit:
			out[i] = "$null"
		case IntLit:
			out[i] = lw.temp()
		default:
			out[i] = lw.temp()
		}
	}
	return out
}

func (lw *lowerer) isClass(name string) bool {
	_, ok := lw.prog.Classes[name]
	return ok
}

func (lw *lowerer) temp() string {
	if lw.tmp == len(lw.temps) {
		lw.temps = append(lw.temps, "$t"+strconv.Itoa(lw.tmp+1))
	}
	lw.tmp++
	return lw.temps[lw.tmp-1]
}
