package lang_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"o2/internal/ir"
	"o2/internal/lang"
	"o2/internal/workload"
)

// source is one single-file minilang program.
type source struct{ name, text string }

// truthCorpus reads the truth-corpus programs, sorted by file name.
func truthCorpus(tb testing.TB) []source {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "truth", "corpus", "*.mini"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("reading the truth corpus: %d files, %v", len(paths), err)
	}
	sort.Strings(paths)
	out := make([]source, len(paths))
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = source{filepath.Base(p), string(b)}
	}
	return out
}

// genLibrary returns a deterministic program shaped like the generated
// inputs of perfbench's sources workload: a two-thread core that races on
// one field and writes another under a lock, and classes library classes
// that no origin reaches. Library classes form clusters of four that only
// use each other; each has three methods of six random statements.
func genLibrary(classes int) string {
	const cluster, methods, stmts = 4, 3, 6
	rng := rand.New(rand.NewSource(int64(classes)))
	var sb strings.Builder
	line := func(format string, args ...any) {
		fmt.Fprintf(&sb, format, args...)
		sb.WriteByte('\n')
	}
	lib := func(i int) string { return fmt.Sprintf("Lib%04d", i) }
	op := func(i, m int) string { return fmt.Sprintf("op%04d_%d", i, m) }

	line("class Shared { field pad, racy, guarded; }")
	line("class Guard { }")
	for w := 0; w < 2; w++ {
		line("class Worker%d {", w)
		line("  field sh, lk;")
		line("  Worker%d(sh, lk) {", w)
		line("    this.sh = sh;")
		line("    this.lk = lk;")
		line("  }")
		line("  run() {")
		line("    s = this.sh;")
		line("    l = this.lk;")
		line("    s.racy = this;")
		line("    sync (l) { s.guarded = this; }")
		line("    v = %d;", rng.Intn(1000))
		line("  }")
		line("}")
	}
	for i := 0; i < classes; i++ {
		line("class %s {", lib(i))
		line("  field a, b, c;")
		line("  %s(x) {", lib(i))
		line("    this.a = x;")
		line("  }")
		for m := 0; m < methods; m++ {
			j := min(i-i%cluster+rng.Intn(cluster), classes-1)
			line("  %s(p) {", op(i, m))
			line("    v = %d;", rng.Intn(1000))
			line("    t = this.a;")
			line("    u = new %s(p);", lib(j))
			for k := 0; k < stmts; k++ {
				switch rng.Intn(6) {
				case 0:
					line("    t = u.b;")
				case 1:
					line("    this.b = t;")
				case 2:
					line("    u.c = p;")
				case 3:
					line("    t = u.%s(p);", op(j, rng.Intn(methods)))
				case 4:
					line("    sync (u) { this.c = t; }")
				default:
					line("    u = new %s(t);", lib(j))
				}
			}
			line("    return t;")
			line("  }")
		}
		line("}")
	}
	line("main {")
	line("  s = new Shared();")
	line("  l = new Guard();")
	for w := 0; w < 2; w++ {
		line("  w%d = new Worker%d(s, l);", w, w)
		line("  w%d.start();", w)
	}
	line("}")
	return sb.String()
}

// frontendInput is one BenchmarkFrontend input: programs compiled one at
// a time.
type frontendInput struct {
	name  string
	progs []source
}

// BenchmarkFrontend measures source-to-AST (parse: lang.Parse) and
// source-to-finalized-IR (compile: lang.CompileFiles, i.e. parse,
// declare, lower and finalize) throughput on the truth corpus and the
// generated 200-class library program. One iteration handles every
// program of the input once; the MB/s column is over source bytes.
func BenchmarkFrontend(b *testing.B) {
	entries := ir.DefaultEntryConfig()
	inputs := []frontendInput{
		{"corpus", truthCorpus(b)},
		{"lib200", []source{{"lib200.mini", genLibrary(200)}}},
	}
	run := func(b *testing.B, compile bool) {
		for _, in := range inputs {
			var size int64
			files := make([]map[string]string, len(in.progs))
			for i, p := range in.progs {
				size += int64(len(p.text))
				files[i] = map[string]string{p.name: p.text}
			}
			b.Run(in.name, func(b *testing.B) {
				b.SetBytes(size)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for j, p := range in.progs {
						var err error
						if compile {
							_, err = lang.CompileFiles(files[j], entries)
						} else {
							_, err = lang.Parse(p.name, p.text)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
	b.Run("parse", func(b *testing.B) { run(b, false) })
	b.Run("compile", func(b *testing.B) { run(b, true) })
}

// irDigest hashes everything a frontend change could silently alter in a
// program: its printed form (classes, statics, every instruction with
// its position) plus, per function, the names and IDs of its locals in
// order and the loop flags the printed form omits.
func irDigest(prog *ir.Program) string {
	h := sha256.New()
	fmt.Fprint(h, prog.String())
	for _, f := range prog.Funcs {
		fmt.Fprintf(h, "locals %s:", f.Name)
		for _, v := range f.Locals {
			fmt.Fprintf(h, " %s#%d", v.Name, v.ID)
		}
		fmt.Fprintln(h)
		for i, in := range f.Body {
			switch in := in.(type) {
			case *ir.Alloc:
				if in.InLoop {
					fmt.Fprintf(h, "loop %d\n", i)
				}
			case *ir.Call:
				if in.InLoop {
					fmt.Fprintf(h, "loop %d\n", i)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

const irGoldenFile = "testdata/ir_golden.txt"

// TestIRGolden pins the IR the frontend produces for the truth corpus and
// the benchmark's generated program, and the IR the preset generator
// builds through the same ir.B, to digests recorded before the streaming
// scanner and the lowering allocation work. The race-set oracles miss a
// changed temp name, Var ID or line number on a race-free access, and
// fragment replay depends on Var IDs. On a deliberate IR change, replace
// the golden lines with the ones this test prints.
func TestIRGolden(t *testing.T) {
	entries := ir.DefaultEntryConfig()
	got := map[string]string{}
	var order []string
	add := func(name string, prog *ir.Program) {
		got[name] = irDigest(prog)
		order = append(order, name)
	}
	for _, p := range append(truthCorpus(t), source{"lib200.mini", genLibrary(200)}) {
		prog, err := lang.CompileFiles(map[string]string{p.name: p.text}, entries)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		add(p.name, prog)
	}
	for _, name := range []string{"avrora", "zookeeper", "memcached"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no preset %s", name)
		}
		add("preset:"+name, workload.Build(p, entries))
	}

	want := readIRGolden(t)
	var fresh strings.Builder
	bad := 0
	for _, name := range order {
		fmt.Fprintf(&fresh, "%s  %s\n", got[name], name)
		if want[name] != got[name] {
			bad++
			t.Errorf("%s: IR digest %s, golden %q", name, got[name], want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			bad++
			t.Errorf("golden names %s, which is no longer an input", name)
		}
	}
	if bad > 0 {
		t.Logf("current digests (%s format):\n%s", irGoldenFile, fresh.String())
	}
}

// readIRGolden parses the golden: "<sha256>  <name>" lines, '#' comments.
func readIRGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(irGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		digest, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", irGoldenFile, line)
		}
		out[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
