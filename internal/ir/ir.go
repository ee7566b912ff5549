// Package ir defines the intermediate representation analyzed by O2.
//
// The IR mirrors the statement universe of the paper's Table 2 and Table 4:
// object allocation, pointer copy, field load/store, array load/store
// (arrays are modeled with a single "*" field), static field load/store,
// virtual and static calls, origin-entry invocations (thread start / event
// dispatch), joins, and monitor enter/exit. Functions are linear sequences
// of instructions; structured control flow in the frontend is lowered to
// straight-line code with both branches retained, which is a sound
// over-approximation for the flow-insensitive analyses built on top.
package ir

import (
	"fmt"
	"sort"
	"strings"
)

// Pos is a source position used in race reports.
type Pos struct {
	File string
	Line int
}

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("<builtin>:%d", p.Line)
	}
	return fmt.Sprintf("%s:%d", p.File, p.Line)
}

// Var is a local variable or parameter of a function. Vars are compared by
// identity; each belongs to exactly one Func.
type Var struct {
	Name string
	Func *Func
	ID   int // index within Func, assigned by the builder
}

func (v *Var) String() string {
	if v == nil {
		return "_"
	}
	if v.Func != nil {
		return v.Func.Name + "." + v.Name
	}
	return v.Name
}

// Class is a reference type with fields, methods and single inheritance.
type Class struct {
	Name    string
	Super   *Class
	Fields  []string
	Methods map[string]*Func
	// Volatiles marks fields with atomic access semantics: concurrent
	// accesses to a volatile field are synchronization, not data races.
	Volatiles map[string]bool

	// IsThread marks classes whose instances are thread origins (the class
	// declares or inherits the configured thread entry method, e.g. "run").
	IsThread bool
	// IsEvent marks event-handler classes (declare or inherit a configured
	// event entry method, e.g. "handleEvent" or "onReceive").
	IsEvent bool
}

// IsVolatile reports whether field f is declared volatile on c or an
// ancestor.
func (c *Class) IsVolatile(f string) bool {
	for k := c; k != nil; k = k.Super {
		if k.Volatiles[f] {
			return true
		}
	}
	return false
}

// HasField reports whether the class or one of its ancestors declares f.
func (c *Class) HasField(f string) bool {
	for k := c; k != nil; k = k.Super {
		for _, g := range k.Fields {
			if g == f {
				return true
			}
		}
	}
	return false
}

// Lookup resolves a virtual method name against the class hierarchy.
func (c *Class) Lookup(name string) *Func {
	for k := c; k != nil; k = k.Super {
		if m, ok := k.Methods[name]; ok {
			return m
		}
	}
	return nil
}

// IsSubclassOf reports whether c is super or a descendant of super.
func (c *Class) IsSubclassOf(super *Class) bool {
	for k := c; k != nil; k = k.Super {
		if k == super {
			return true
		}
	}
	return false
}

func (c *Class) String() string { return c.Name }

// Func is a function or method. Params[0] is the receiver for methods.
type Func struct {
	Name   string // qualified name, e.g. "Worker.run" or "main"
	Class  *Class // nil for free functions
	Params []*Var
	Locals []*Var
	Body   []Instr
	Ret    *Var // synthetic variable carrying the return value; nil if void
	// OriginEntry marks a developer-annotated origin entry point (§3.1:
	// customized user-level threads may be annotated rather than matched
	// by name).
	OriginEntry bool

	vars map[string]*Var
}

// Simple returns the unqualified method name ("run" for "Worker.run").
func (f *Func) Simple() string {
	if i := strings.LastIndexByte(f.Name, '.'); i >= 0 {
		return f.Name[i+1:]
	}
	return f.Name
}

func (f *Func) String() string { return f.Name }

// scanLocals is the number of locals up to which Var finds a name by
// scanning Locals; a function with more gets a name index.
const scanLocals = 16

// Var returns the variable named name, creating it as a local if absent.
func (f *Func) Var(name string) *Var {
	if f.vars != nil {
		if v, ok := f.vars[name]; ok {
			return v
		}
	} else {
		for _, v := range f.Locals {
			if v.Name == name {
				return v
			}
		}
	}
	v := &Var{Name: name, Func: f, ID: len(f.Locals)}
	f.Locals = append(f.Locals, v)
	switch {
	case f.vars != nil:
		f.vars[name] = v
	case len(f.Locals) > scanLocals:
		f.vars = make(map[string]*Var, 2*len(f.Locals))
		for _, l := range f.Locals {
			f.vars[l.Name] = l
		}
	}
	return v
}

// ResetBody clears the function's body, locals and return variable,
// keeping only the declared parameters (with their original IDs). A
// failed fragment replay resets the shell with it before falling back
// to re-lowering the body from source.
func (f *Func) ResetBody() {
	f.Body = nil
	f.Ret = nil
	params := f.Params
	f.Params = nil
	f.Locals = nil
	f.vars = nil
	for _, p := range params {
		f.Params = append(f.Params, f.Var(p.Name))
	}
}

// Program is a whole analyzable program.
type Program struct {
	Classes map[string]*Class
	Funcs   []*Func // all functions, including methods; Funcs[0] is not special
	Main    *Func
	// Statics is the set of static fields, as "Class.field" signatures.
	Statics []string
	// VolatileStatics marks static fields with atomic access semantics.
	VolatileStatics map[string]bool

	// Numbering assigned by Finalize.
	NumAllocSites int
	NumCallSites  int
	NumInstrs     int

	finalized bool
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{Classes: map[string]*Class{}, VolatileStatics: map[string]bool{}}
}

// Class returns the class named name, creating it if absent.
func (p *Program) Class(name string) *Class {
	if c, ok := p.Classes[name]; ok {
		return c
	}
	c := &Class{Name: name, Methods: map[string]*Func{}, Volatiles: map[string]bool{}}
	p.Classes[name] = c
	return c
}

// NewFunc creates and registers a function. For methods, pass the class and
// the unqualified name; the receiver parameter "this" is added automatically.
func (p *Program) NewFunc(class *Class, name string, params ...string) *Func {
	qname := name
	if class != nil {
		qname = class.Name + "." + name
	}
	f := &Func{Name: qname, Class: class}
	if class != nil {
		f.Params = make([]*Var, 0, 1+len(params))
		f.Params = append(f.Params, f.Var("this"))
		class.Methods[name] = f
	}
	for _, pn := range params {
		f.Params = append(f.Params, f.Var(pn))
	}
	p.Funcs = append(p.Funcs, f)
	if qname == "main" {
		p.Main = f
	}
	return f
}

// LookupFunc finds a function by qualified name, or nil.
func (p *Program) LookupFunc(qname string) *Func {
	for _, f := range p.Funcs {
		if f.Name == qname {
			return f
		}
	}
	return nil
}

// Finalize assigns program-wide identifiers to allocation sites, call sites
// and instructions, and computes class concurrency flags. It must be called
// once after construction, before analysis.
func (p *Program) Finalize(entryCfg EntryConfig) error {
	if p.finalized {
		return nil
	}
	if p.Main == nil {
		return fmt.Errorf("ir: program has no main function")
	}
	alloc, call, n := 0, 0, 0
	for _, f := range p.Funcs {
		for _, in := range f.Body {
			n++
			switch in := in.(type) {
			case *Alloc:
				in.Site = alloc
				alloc++
			case *ChanMake:
				in.Site = alloc
				alloc++
			case *Call:
				in.Site = call
				call++
			}
		}
	}
	p.NumAllocSites = alloc
	p.NumCallSites = call
	p.NumInstrs = n
	for _, c := range p.Classes {
		for _, m := range entryCfg.ThreadEntries {
			if c.Lookup(m) != nil {
				c.IsThread = true
			}
		}
		for _, m := range entryCfg.EventEntries {
			if c.Lookup(m) != nil {
				c.IsEvent = true
			}
		}
		for k := c; k != nil; k = k.Super {
			for _, m := range k.Methods {
				if m.OriginEntry {
					c.IsThread = true
				}
			}
		}
	}
	p.finalized = true
	return nil
}

// Subclasses returns all classes (including c itself) that are subclasses of
// c, in deterministic order.
func (p *Program) Subclasses(c *Class) []*Class {
	var out []*Class
	for _, k := range p.Classes {
		if k.IsSubclassOf(c) {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// EntryConfig configures which method names are origin entry points,
// mirroring the paper's Table 1. StartMethods are parent-side invocations
// (e.g. Thread.start) that transfer control to the corresponding thread
// entry; JoinMethods end an origin from the parent side.
type EntryConfig struct {
	ThreadEntries []string // e.g. run, call
	EventEntries  []string // e.g. handleEvent, onReceive, onMessageEvent, actionPerformed
	StartMethods  []string // e.g. start (dispatches to "run" on the receiver)
	JoinMethods   []string // e.g. join
	// WaitMethods / NotifyMethods are condition-variable operations: a
	// notify on an object happens-before the resumption of a wait on the
	// same object (the "new happens-before rules ... to the semaphore
	// operations" the paper lists as future work).
	WaitMethods   []string // e.g. wait
	NotifyMethods []string // e.g. notify, notifyAll, signal
	// LockFuncs / UnlockFuncs name free functions that acquire/release the
	// monitor of their first argument — pthread mutexes and the paper's
	// "customized locks through configurations".
	LockFuncs   []string // e.g. pthread_mutex_lock, spin_lock
	UnlockFuncs []string // e.g. pthread_mutex_unlock, spin_unlock
	// WgAddMethods / WgDoneMethods / WgWaitMethods are WaitGroup-style
	// barrier operations (Go's sync.WaitGroup): every Done on an object
	// happens-before the resumption of a Wait on the same object. A call
	// is classified as a WaitGroup operation only when virtual dispatch
	// resolves no user-defined target, so classes with real Add/Done/Wait
	// methods keep ordinary call semantics.
	WgAddMethods  []string // e.g. Add
	WgDoneMethods []string // e.g. Done
	WgWaitMethods []string // e.g. Wait
}

// DefaultEntryConfig matches the paper's Table 1 defaults.
func DefaultEntryConfig() EntryConfig {
	return EntryConfig{
		ThreadEntries: []string{"run", "call"},
		EventEntries:  []string{"handleEvent", "onReceive", "onMessageEvent", "actionPerformed", "onEvent"},
		StartMethods:  []string{"start"},
		JoinMethods:   []string{"join"},
		WaitMethods:   []string{"wait"},
		NotifyMethods: []string{"notify", "notifyAll", "signal"},
		LockFuncs:     []string{"pthread_mutex_lock", "spin_lock"},
		UnlockFuncs:   []string{"pthread_mutex_unlock", "spin_unlock"},
		WgAddMethods:  []string{"Add"},
		WgDoneMethods: []string{"Done"},
		WgWaitMethods: []string{"Wait"},
	}
}

// IsThreadEntry reports whether simple method name m is a thread entry.
func (c EntryConfig) IsThreadEntry(m string) bool { return contains(c.ThreadEntries, m) }

// IsEventEntry reports whether simple method name m is an event entry.
func (c EntryConfig) IsEventEntry(m string) bool { return contains(c.EventEntries, m) }

// IsEntry reports whether simple method name m is any origin entry.
func (c EntryConfig) IsEntry(m string) bool { return c.IsThreadEntry(m) || c.IsEventEntry(m) }

// IsStart reports whether simple method name m is a start-style dispatcher.
func (c EntryConfig) IsStart(m string) bool { return contains(c.StartMethods, m) }

// IsJoin reports whether simple method name m is a join.
func (c EntryConfig) IsJoin(m string) bool { return contains(c.JoinMethods, m) }

// IsWait reports whether simple method name m is a condition wait.
func (c EntryConfig) IsWait(m string) bool { return contains(c.WaitMethods, m) }

// IsLockFunc reports whether free-function name m acquires a lock.
func (c EntryConfig) IsLockFunc(m string) bool { return contains(c.LockFuncs, m) }

// IsUnlockFunc reports whether free-function name m releases a lock.
func (c EntryConfig) IsUnlockFunc(m string) bool { return contains(c.UnlockFuncs, m) }

// IsNotify reports whether simple method name m is a condition notify.
func (c EntryConfig) IsNotify(m string) bool { return contains(c.NotifyMethods, m) }

// IsWgAdd reports whether simple method name m is a WaitGroup Add.
func (c EntryConfig) IsWgAdd(m string) bool { return contains(c.WgAddMethods, m) }

// IsWgDone reports whether simple method name m is a WaitGroup Done.
func (c EntryConfig) IsWgDone(m string) bool { return contains(c.WgDoneMethods, m) }

// IsWgWait reports whether simple method name m is a WaitGroup Wait.
func (c EntryConfig) IsWgWait(m string) bool { return contains(c.WgWaitMethods, m) }

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
