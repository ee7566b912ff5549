package lang

import (
	"strings"
	"testing"

	"o2/internal/ir"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := Compile("test.mini", src, ir.DefaultEntryConfig())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// scanAll reads src through the scanner into a token slice ending in
// EOF, or returns the first lexical error.
func scanAll(file, src string) ([]token, error) {
	s := &scanner{src: src, file: file, line: 1}
	var toks []token
	for {
		t := s.scan()
		if s.err != nil {
			return nil, s.err
		}
		toks = append(toks, t)
		if t.kind == tEOF {
			return toks, nil
		}
	}
}

func TestLexBasics(t *testing.T) {
	toks, err := scanAll("t", `class Foo { field x; } // comment
/* block
comment */ main { x = new Foo(); }`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tok := range toks {
		if tok.kind == tEOF {
			break
		}
		kinds = append(kinds, tok.text)
	}
	want := []string{"class", "Foo", "{", "field", "x", ";", "}", "main", "{", "x", "=", "new", "Foo", "(", ")", ";", "}"}
	if strings.Join(kinds, " ") != strings.Join(want, " ") {
		t.Errorf("tokens = %v", kinds)
	}
}

func TestLexLineNumbers(t *testing.T) {
	toks, err := scanAll("t", "a\nb\n\nc")
	if err != nil {
		t.Fatal(err)
	}
	lines := []int{1, 2, 4}
	for i, want := range lines {
		if toks[i].line != want {
			t.Errorf("token %d on line %d, want %d", i, toks[i].line, want)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"/* unterminated", `"unterminated`, "class @"} {
		if _, err := scanAll("t", src); err == nil {
			t.Errorf("scanAll(%q) should fail", src)
		}
	}
}

// TestLexErrorPrecedence: the scanner runs ahead of the parser only as
// far as it consumes, yet the first lexical error anywhere in the input
// still wins over a parse error before it, as with a whole-file lexer.
func TestLexErrorPrecedence(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`class A { 1 } "open`, "t:1: unterminated string"},
		{"main { x = null; } /* open", "t:1: unterminated block comment"},
		{`main { x = "s" } @`, "t:1: unexpected character '@'"},
		{"main {\n x = ; }\n\n/*\n", "t:4: unterminated block comment"},
	} {
		_, err := Parse("t", tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q) = %v, want %s", tc.src, err, tc.want)
		}
	}
}

// TestLexUnicode: identifiers are UTF-8 letters and digits; any other rune
// and any invalid byte outside strings and comments is a positioned error.
func TestLexUnicode(t *testing.T) {
	prog := compile(t, `class Café { field naïve; }
main { café = new Café(); café.naïve = null; π = café; n٣ = π; }`)
	if prog.Classes["Café"] == nil {
		t.Errorf("class Café not declared: %v", prog.Classes)
	}
	var names []string
	for _, v := range prog.Main.Locals {
		names = append(names, v.Name)
	}
	if got := strings.Join(names, " "); !strings.Contains(got, "café") || !strings.Contains(got, "π") || !strings.Contains(got, "n٣") {
		t.Errorf("main locals = %s", got)
	}
	for _, tc := range []struct{ src, want string }{
		{"main { x→y = null; }", "test.mini:1: unexpected character '→'"},
		{"main {\n x = \xe9; }", "test.mini:2: invalid UTF-8 byte 0xe9"},
		{"main { x\xe9 = null; }", "test.mini:1: invalid UTF-8 byte 0xe9"},
	} {
		_, err := Compile("test.mini", tc.src, ir.DefaultEntryConfig())
		if err == nil || err.Error() != tc.want {
			t.Errorf("Compile(%q) = %v, want %s", tc.src, err, tc.want)
		}
	}
	// Strings and comments take any bytes.
	compile(t, "main { x = \"\xe9→\xff\"; } // \xe9 → \xff\n/* \xc3 */")
}

func TestParseClassForms(t *testing.T) {
	f, err := Parse("t", `
class A extends B {
  field x, y;
  static field g;
  A(v) { this.x = v; }
  m(p, q) { return p; }
}
main { a = new A(null); }
func helper(z) { return z; }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Classes) != 1 || len(f.Funcs) != 2 {
		t.Fatalf("decls: %d classes, %d funcs", len(f.Classes), len(f.Funcs))
	}
	cd := f.Classes[0]
	if cd.Super != "B" {
		t.Errorf("super = %q", cd.Super)
	}
	if len(cd.Fields) != 3 || !cd.Fields[2].Static {
		t.Errorf("fields = %+v", cd.Fields)
	}
	if len(cd.Methods) != 2 || cd.Methods[0].Name != "init" {
		t.Errorf("constructor should be renamed to init: %+v", cd.Methods[0])
	}
	if cd.Methods[1].Params[1] != "q" {
		t.Errorf("method params = %v", cd.Methods[1].Params)
	}
}

func TestParseStatementForms(t *testing.T) {
	f, err := Parse("t", `
main {
  x = new C();
  y = x;
  z = x.f;
  x.f = z;
  a = x[i + 1];
  x[j * 2] = a;
  r = x.m(a, null, 3);
  x.m(a);
  free(a);
  sync (x) { x.f = a; }
  if (a == null && b > 0) { y = a; } else if (c) { y = x; } else { y = z; }
  while (i < 10) { w = new C(); }
  return r;
  a[i / 2] = x;
  if (n / 2) { y = a; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	stmts := f.Funcs[0].Body
	if len(stmts) != 15 {
		t.Fatalf("got %d statements", len(stmts))
	}
	if _, ok := stmts[9].(*SyncStmt); !ok {
		t.Errorf("stmt 9 = %T, want sync", stmts[9])
	}
	ifs, ok := stmts[10].(*IfStmt)
	if !ok || len(ifs.Else) != 1 {
		t.Errorf("stmt 10 = %T (else chain broken)", stmts[10])
	}
	if _, ok := stmts[11].(*WhileStmt); !ok {
		t.Errorf("stmt 11 = %T, want while", stmts[11])
	}
	if _, ok := stmts[12].(*ReturnStmt); !ok {
		t.Errorf("stmt 12 = %T, want return", stmts[12])
	}
	if as, ok := stmts[13].(*AssignStmt); !ok || as.Lhs != (IndexRef{"a"}) {
		t.Errorf("stmt 13 = %T, want an index store", stmts[13])
	}
	if _, ok := stmts[14].(*IfStmt); !ok {
		t.Errorf("stmt 14 = %T, want if", stmts[14])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`main { x = ; }`,
		`main { x.f; }`,
		`class { }`,
		`main { sync x { } }`,
		`main { if (a { } }`,
		`xyz`,
		`main { x = new; }`,
	}
	for _, src := range bad {
		if _, err := Parse("t", src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestLowerBasicShapes(t *testing.T) {
	prog := compile(t, `
class Box { field v; }
main {
  b = new Box();
  b.v = null;
  x = b.v;
  b[0] = x;
  y = b[1];
}
`)
	main := prog.Main
	var kinds []string
	for _, in := range main.Body {
		kinds = append(kinds, strings.SplitN(in.String(), " ", 2)[0])
	}
	if prog.NumAllocSites != 1 {
		t.Errorf("want 1 alloc site, got %d", prog.NumAllocSites)
	}
	hasLoad, hasStore, hasIdx := false, false, false
	for _, in := range main.Body {
		switch in.(type) {
		case *ir.LoadField:
			hasLoad = true
		case *ir.StoreField:
			hasStore = true
		case *ir.StoreIndex:
			hasIdx = true
		}
	}
	if !hasLoad || !hasStore || !hasIdx {
		t.Errorf("lowering missing forms: %v", kinds)
	}
}

func TestLowerStatics(t *testing.T) {
	prog := compile(t, `
class G { static field cfg; }
main {
  x = new Obj();
  G.cfg = x;
  y = G.cfg;
}
`)
	var loads, stores int
	for _, in := range prog.Main.Body {
		switch in := in.(type) {
		case *ir.LoadStatic:
			loads++
			if in.Class.Name != "G" || in.Field != "cfg" {
				t.Errorf("bad static load %v", in)
			}
		case *ir.StoreStatic:
			stores++
		}
	}
	if loads != 1 || stores != 1 {
		t.Errorf("statics lowered: %d loads, %d stores", loads, stores)
	}
	if len(prog.Statics) != 1 || prog.Statics[0] != "G.cfg" {
		t.Errorf("Statics = %v", prog.Statics)
	}
}

func TestLowerSuperCall(t *testing.T) {
	prog := compile(t, `
class A { field f; A() { this.f = null; } }
class B extends A { B() { super(); } }
main { b = new B(); }
`)
	bInit := prog.Classes["B"].Methods["init"]
	found := false
	for _, in := range bInit.Body {
		if c, ok := in.(*ir.Call); ok && c.Static != nil && c.Recv != nil {
			if c.Static != prog.Classes["A"].Methods["init"] {
				t.Errorf("super resolves to %v", c.Static)
			}
			found = true
		}
	}
	if !found {
		t.Errorf("super() call not lowered")
	}
}

func TestLowerSuperErrors(t *testing.T) {
	_, err := Compile("t", `class A { A() { super(); } } main { }`, ir.DefaultEntryConfig())
	if err == nil {
		t.Errorf("super() without superclass should fail")
	}
	// A call to an undeclared name lowers to an indirect call through a
	// function-pointer variable (C-style); it compiles, and a variable that
	// never receives a function pointer simply resolves no targets.
	prog, err := Compile("t", `main { f(); }`, ir.DefaultEntryConfig())
	if err != nil {
		t.Errorf("indirect call should compile: %v", err)
	}
	indirect := false
	for _, in := range prog.Main.Body {
		if c, ok := in.(*ir.Call); ok && c.Indirect != nil {
			indirect = true
		}
	}
	if !indirect {
		t.Errorf("unknown callee should lower to an indirect call")
	}
}

func TestLowerWhileMarksLoopAllocs(t *testing.T) {
	prog := compile(t, `
class W { run() { } }
main {
  while (1) { w = new W(); w.start(); }
  v = new W();
}
`)
	var loopAlloc, plainAlloc *ir.Alloc
	for _, in := range prog.Main.Body {
		if a, ok := in.(*ir.Alloc); ok {
			if a.InLoop {
				loopAlloc = a
			} else {
				plainAlloc = a
			}
		}
	}
	if loopAlloc == nil || plainAlloc == nil {
		t.Fatalf("loop marking wrong: loop=%v plain=%v", loopAlloc, plainAlloc)
	}
}

func TestLowerBothBranchesKept(t *testing.T) {
	prog := compile(t, `
class C { field a, b; }
main {
  c = new C();
  if (x) { c.a = null; } else { c.b = null; }
}
`)
	stores := 0
	for _, in := range prog.Main.Body {
		if _, ok := in.(*ir.StoreField); ok {
			stores++
		}
	}
	if stores != 2 {
		t.Errorf("both branches should lower: %d stores", stores)
	}
}

func TestCompileFilesMergesAndOrders(t *testing.T) {
	prog, err := CompileFiles(map[string]string{
		"b.mini": `main { c = new C(); c.go2(); }`,
		"a.mini": `class C { go2() { } }`,
	}, ir.DefaultEntryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if prog.Main == nil || prog.Classes["C"] == nil {
		t.Fatalf("cross-file references unresolved")
	}
	// Duplicate function across files must fail.
	_, err = CompileFiles(map[string]string{
		"a.mini": `func f() { } main { f(); }`,
		"b.mini": `func f() { }`,
	}, ir.DefaultEntryConfig())
	if err == nil {
		t.Errorf("duplicate function should fail")
	}
}

func TestLowerLiteralsAreOpaque(t *testing.T) {
	prog := compile(t, `
class C { field v; }
main {
  c = new C();
  c.v = 42;
  c.v = "hello";
  c.v = null;
}
`)
	stores := 0
	for _, in := range prog.Main.Body {
		if _, ok := in.(*ir.StoreField); ok {
			stores++
		}
	}
	if stores != 3 {
		t.Errorf("literal stores lowered: %d", stores)
	}
}

func TestAutoDeclaredLibraryClasses(t *testing.T) {
	prog := compile(t, `main { x = new SomethingNew(); }`)
	if prog.Classes["SomethingNew"] == nil {
		t.Errorf("new of undeclared class should auto-declare it")
	}
}

func TestPositionsSurviveLowering(t *testing.T) {
	prog := compile(t, `class C { field v; }
main {
  c = new C();
  c.v = null;
}`)
	for _, in := range prog.Main.Body {
		if s, ok := in.(*ir.StoreField); ok {
			if s.Pos().Line != 4 || s.Pos().File != "test.mini" {
				t.Errorf("store position = %v", s.Pos())
			}
		}
	}
}

func TestVolatileFieldsParse(t *testing.T) {
	prog := compile(t, `
class C {
  volatile field flag;
  static volatile field g;
  field plain;
}
main { c = new C(); }
`)
	c := prog.Classes["C"]
	if !c.IsVolatile("flag") {
		t.Errorf("flag should be volatile")
	}
	if c.IsVolatile("plain") {
		t.Errorf("plain should not be volatile")
	}
	if !prog.VolatileStatics["C.g"] {
		t.Errorf("C.g should be a volatile static")
	}
}

func TestVolatileInheritance(t *testing.T) {
	prog := compile(t, `
class A { volatile field state; }
class B extends A { }
main { b = new B(); }
`)
	if !prog.Classes["B"].IsVolatile("state") {
		t.Errorf("volatile must be visible through inheritance")
	}
}

func TestModifierOrderIrrelevant(t *testing.T) {
	prog := compile(t, `
class C {
  volatile static field a;
  static volatile field b;
}
main { c = new C(); }
`)
	if !prog.VolatileStatics["C.a"] || !prog.VolatileStatics["C.b"] {
		t.Errorf("modifier order should not matter: %v", prog.VolatileStatics)
	}
}

// TestParserNeverPanics feeds random token soup to the parser: errors are
// fine, panics are not.
func TestParserNeverPanics(t *testing.T) {
	words := []string{
		"class", "extends", "field", "static", "volatile", "origin", "main",
		"func", "new", "sync", "if", "else", "while", "return", "null",
		"super", "x", "y", "Foo", "run", "(", ")", "{", "}", "[", "]",
		";", ",", "=", ".", "&", "42", `"s"`,
	}
	rng := newRand(1234567)
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng()%60
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(words[rng()%len(words)])
			sb.WriteByte(' ')
		}
		src := sb.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", src, r)
				}
			}()
			_, _ = Parse("fuzz", src)
		}()
	}
}

// TestLowerNeverPanicsOnParsables lowers every random program that
// happens to parse; lowering errors are fine, panics are not.
func TestLowerNeverPanicsOnParsables(t *testing.T) {
	words := []string{
		"class Foo { field v; run() { } }", "main { x = new Foo(); }",
		"main { x = y; }", "func f(a) { return a; }",
		"class B extends Foo { B() { super(); } }",
	}
	rng := newRand(99)
	for trial := 0; trial < 200; trial++ {
		var sb strings.Builder
		for i := 0; i < 1+rng()%4; i++ {
			sb.WriteString(words[rng()%len(words)])
			sb.WriteByte('\n')
		}
		src := sb.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("lowering panicked on %q: %v", src, r)
				}
			}()
			_, _ = Compile("fuzz", src, ir.DefaultEntryConfig())
		}()
	}
}

// newRand is a tiny deterministic PRNG to keep the fuzz corpora stable.
func newRand(seed uint64) func() int {
	s := seed
	return func() int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % (1 << 31))
	}
}

// nested returns a main whose innermost statement sits depth blocks
// deep: main's body, then depth-1 nested ifs.
func nested(depth int) string {
	return "main {\n" + strings.Repeat("if (x) {\n", depth-1) + "x = null;\n" + strings.Repeat("}\n", depth)
}

// elseIfs returns a main holding an if with n else-ifs.
func elseIfs(n int) string {
	return "main {\nif (x) { }" + strings.Repeat(" else if (x) { }", n) + "\n}\n"
}

// Blocks nest up to maxDepth; one level more is a positioned parse
// error, not a fatal stack overflow. An else-if nests one level deeper
// than its if.
func TestBlockDepthCap(t *testing.T) {
	for _, src := range []string{nested(maxDepth), elseIfs(maxDepth - 2)} {
		if _, err := Compile("deep.mini", src, ir.DefaultEntryConfig()); err != nil {
			t.Fatalf("nesting at the cap: %v", err)
		}
	}
	for _, src := range []string{nested(maxDepth + 1), elseIfs(maxDepth - 1)} {
		_, err := Parse("deep.mini", src)
		if err == nil || !strings.HasPrefix(err.Error(), "deep.mini:") || !strings.Contains(err.Error(), "nested more than 1000 deep") {
			t.Fatalf("nesting one level over the cap: got %v", err)
		}
	}
}
