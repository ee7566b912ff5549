package lang

import (
	"fmt"

	"o2/internal/ir"
)

// Shell is the declaration skeleton of a program: every class (with its
// fields, statics, volatiles and super edge) and every method/function
// shell is declared, but no body has been lowered yet. It is the
// substrate of per-unit incremental compilation — dirty units lower
// their bodies through LowerMethod/LowerFunc while clean units replay
// cached instruction fragments into the same shells — and CompileFiles
// is itself built on it, so the two paths share one lowering.
type Shell struct {
	prog    *ir.Program
	entries ir.EntryConfig
	freeFns map[string]*ir.Func

	// Lowering scratch, reused from body to body: the instruction buffer
	// a body grows in before it is copied out at its exact size, and the
	// temp names ("$t1", "$t2", ...) every body numbers from one.
	body  []ir.Instr
	temps []string
}

// Declare runs the declaration pass over the parsed files: classes,
// fields and method/function shells are created so that all references
// resolve regardless of declaration order, and the inheritance graph is
// checked for cycles. Bodies are not lowered.
func Declare(asts []*File, entries ir.EntryConfig) (*Shell, error) {
	sh := &Shell{
		prog:    ir.NewProgram(),
		entries: entries,
		freeFns: map[string]*ir.Func{},
	}
	for _, f := range asts {
		for _, cd := range f.Classes {
			c := sh.prog.Class(cd.Name)
			if cd.Super != "" {
				c.Super = sh.prog.Class(cd.Super)
			}
			for _, fd := range cd.Fields {
				if fd.Static {
					sig := cd.Name + "." + fd.Name
					sh.prog.Statics = append(sh.prog.Statics, sig)
					if fd.Volatile {
						sh.prog.VolatileStatics[sig] = true
					}
				} else {
					c.Fields = append(c.Fields, fd.Name)
					if fd.Volatile {
						c.Volatiles[fd.Name] = true
					}
				}
			}
			for _, md := range cd.Methods {
				if c.Methods[md.Name] != nil {
					return nil, fmt.Errorf("%s: duplicate method %s.%s", f.Name, cd.Name, md.Name)
				}
				fn := sh.prog.NewFunc(c, md.Name, md.Params...)
				fn.OriginEntry = md.Origin
			}
		}
		for _, fd := range f.Funcs {
			if sh.freeFns[fd.Name] != nil {
				return nil, fmt.Errorf("%s: duplicate function %s", f.Name, fd.Name)
			}
			sh.freeFns[fd.Name] = sh.prog.NewFunc(nil, fd.Name, fd.Params...)
		}
	}
	// The Super chains must be acyclic: field/volatile lookups and method
	// resolution walk them to nil. Each walk stamps the classes it visits:
	// meeting its own stamp closes a cycle, and meeting an earlier walk's
	// stamp joins a chain already known to reach nil.
	stamp := make(map[*ir.Class]int, len(sh.prog.Classes))
	walk := 0
	for _, f := range asts {
		for _, cd := range f.Classes {
			walk++
			for c := sh.prog.Classes[cd.Name]; c != nil; c = c.Super {
				s := stamp[c]
				if s == walk {
					return nil, fmt.Errorf("%s:%d: inheritance cycle through class %s", f.Name, cd.Line, c.Name)
				}
				if s != 0 {
					break
				}
				stamp[c] = walk
			}
		}
	}
	return sh, nil
}

// Prog returns the program under construction. It is not finalized;
// call Finalize after all bodies are lowered or replayed.
func (sh *Shell) Prog() *ir.Program { return sh.prog }

// FreeFunc returns the shell of a declared free function, or nil.
func (sh *Shell) FreeFunc(name string) *ir.Func { return sh.freeFns[name] }

// Method returns the shell of a declared method, or nil.
func (sh *Shell) Method(class, name string) *ir.Func {
	c := sh.prog.Classes[class]
	if c == nil {
		return nil
	}
	return c.Methods[name]
}

// FuncByName resolves a qualified function name ("f" or "C.m") to its
// shell. Fragment replay links call targets through it.
func (sh *Shell) FuncByName(qname string) *ir.Func {
	for _, fn := range sh.prog.Funcs {
		if fn.Name == qname {
			return fn
		}
	}
	return nil
}

// LowerMethod lowers one method body into its declared shell. Temp
// variables are numbered per body, so lowering a body in isolation
// produces exactly the instructions whole-program compilation would.
func (sh *Shell) LowerMethod(file, class string, md *FuncDecl) error {
	c := sh.prog.Classes[class]
	if c == nil || c.Methods[md.Name] == nil {
		return fmt.Errorf("%s: method %s.%s not declared", file, class, md.Name)
	}
	lw := lowerer{Shell: sh, file: file}
	return lw.lowerBody(c.Methods[md.Name], md)
}

// LowerFunc lowers one free-function body into its declared shell.
func (sh *Shell) LowerFunc(file string, fd *FuncDecl) error {
	fn := sh.freeFns[fd.Name]
	if fn == nil {
		return fmt.Errorf("%s: function %s not declared", file, fd.Name)
	}
	lw := lowerer{Shell: sh, file: file}
	return lw.lowerBody(fn, fd)
}
