package race_test

import (
	"errors"
	"testing"

	"o2/internal/ir"
	"o2/internal/lang"
	"o2/internal/osa"
	"o2/internal/pta"
	"o2/internal/race"
	"o2/internal/shb"
	"o2/internal/workload"
)

func detect(t *testing.T, src string, pol pta.Policy, opts race.Options, android bool) (*pta.Analysis, *race.Report) {
	t.Helper()
	prog, err := lang.Compile("t.mini", src, ir.DefaultEntryConfig())
	if err != nil {
		t.Fatal(err)
	}
	return detectProg(t, prog, pol, opts, android)
}

func detectProg(t *testing.T, prog *ir.Program, pol pta.Policy, opts race.Options, android bool) (*pta.Analysis, *race.Report) {
	t.Helper()
	a := pta.New(prog, pta.Config{Policy: pol, Entries: ir.DefaultEntryConfig()})
	if err := a.Solve(); err != nil {
		t.Fatal(err)
	}
	sh := osa.Analyze(a)
	g := shb.Build(a, shb.Config{AndroidEvents: android})
	return a, race.Detect(a, sh, g, opts)
}

func opa() pta.Policy { return pta.Policy{Kind: pta.KOrigin, K: 1} }

const twoWriters = `
class S { field v; }
class W {
  field s;
  W(s) { this.s = s; }
  run() { x = this.s; x.v = this; }
}
main {
  s = new S();
  w1 = new W(s);
  w2 = new W(s);
  w1.start();
  w2.start();
}
`

func TestBasicWriteWriteRace(t *testing.T) {
	_, rep := detect(t, twoWriters, opa(), race.O2Options(), false)
	if len(rep.Races) != 1 {
		t.Fatalf("want 1 race, got %d", len(rep.Races))
	}
	r := rep.Races[0]
	if !r.A.Write || !r.B.Write {
		t.Errorf("both sides should be writes")
	}
	if r.A.Origin == r.B.Origin {
		t.Errorf("race within a single origin instance")
	}
}

func TestReadReadNoRace(t *testing.T) {
	_, rep := detect(t, `
class S { field v; }
class W {
  field s;
  W(s) { this.s = s; }
  run() { x = this.s; r = x.v; }
}
main {
  s = new S();
  s.v = null;
  w1 = new W(s);
  w2 = new W(s);
  w1.start();
  w2.start();
}
`, opa(), race.O2Options(), false)
	if len(rep.Races) != 0 {
		t.Fatalf("read-read is not a race: got %d", len(rep.Races))
	}
}

func TestCommonLockSuppresses(t *testing.T) {
	_, rep := detect(t, `
class S { field v; }
class W {
  field s; field l;
  W(s, l) { this.s = s; this.l = l; }
  run() {
    x = this.s;
    k = this.l;
    sync (k) { x.v = this; }
  }
}
main {
  s = new S();
  l = new L();
  w1 = new W(s, l);
  w2 = new W(s, l);
  w1.start();
  w2.start();
}
`, opa(), race.O2Options(), false)
	if len(rep.Races) != 0 {
		t.Fatalf("common lock must suppress the race: got %d", len(rep.Races))
	}
}

func TestDifferentLocksStillRace(t *testing.T) {
	_, rep := detect(t, `
class S { field v; }
class W {
  field s; field l;
  W(s, l) { this.s = s; this.l = l; }
  run() {
    x = this.s;
    k = this.l;
    sync (k) { x.v = this; }
  }
}
main {
  s = new S();
  l1 = new L();
  l2 = new L();
  w1 = new W(s, l1);
  w2 = new W(s, l2);
  w1.start();
  w2.start();
}
`, opa(), race.O2Options(), false)
	if len(rep.Races) != 1 {
		t.Fatalf("different locks do not protect: got %d races", len(rep.Races))
	}
}

// All optimization configurations must report the same races — the §4.1
// optimizations are sound.
func TestOptimizationsSoundOnPresets(t *testing.T) {
	entries := ir.DefaultEntryConfig()
	variants := []race.Options{
		race.O2Options(),
		{RegionMerge: false, CanonicalLocksets: true, HBCache: true, OSAFilter: true},
		{RegionMerge: true, CanonicalLocksets: false, HBCache: true, OSAFilter: true},
		{RegionMerge: true, CanonicalLocksets: true, HBCache: false, OSAFilter: true},
		{RegionMerge: true, CanonicalLocksets: true, HBCache: true, OSAFilter: false},
		race.NaiveOptions(),
	}
	for _, name := range []string{"avrora", "lusearch", "memcached"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("preset %s missing", name)
		}
		prog := workload.Build(p, entries)
		a := pta.New(prog, pta.Config{Policy: opa(), Entries: entries})
		if err := a.Solve(); err != nil {
			t.Fatal(err)
		}
		sh := osa.Analyze(a)
		g := shb.Build(a, shb.Config{})
		want := -1
		for vi, opts := range variants {
			rep := race.Detect(a, sh, g, opts)
			if want == -1 {
				want = len(rep.Races)
				continue
			}
			if len(rep.Races) != want {
				t.Errorf("%s: variant %d reports %d races, want %d", name, vi, len(rep.Races), want)
			}
		}
	}
}

func TestRegionMergeReducesWork(t *testing.T) {
	src := `
class S { field v; }
class W {
  field s; field l;
  W(s, l) { this.s = s; this.l = l; }
  run() {
    x = this.s;
    k = this.l;
    sync (k) {
      x.v = this; x.v = this; x.v = this; x.v = this;
    }
  }
}
main {
  s = new S();
  l = new L();
  w1 = new W(s, l);
  w2 = new W(s, l);
  w1.start();
  w2.start();
}
`
	_, full := detect(t, src, opa(), race.O2Options(), false)
	noMerge := race.O2Options()
	noMerge.RegionMerge = false
	_, plain := detect(t, src, opa(), noMerge, false)
	if full.Representatives >= plain.Representatives {
		t.Errorf("merging should reduce representatives: %d vs %d",
			full.Representatives, plain.Representatives)
	}
	if len(full.Races) != len(plain.Races) {
		t.Errorf("merging changed the verdict: %d vs %d", len(full.Races), len(plain.Races))
	}
}

func TestPairBudgetStopsDetection(t *testing.T) {
	entries := ir.DefaultEntryConfig()
	p, _ := workload.ByName("zookeeper")
	prog := workload.Build(p, entries)
	a := pta.New(prog, pta.Config{Policy: pta.Policy{Kind: pta.Insensitive}, Entries: entries})
	if err := a.Solve(); err != nil {
		t.Fatal(err)
	}
	sh := osa.Analyze(a)
	g := shb.Build(a, shb.Config{})
	opts := race.O2Options()
	opts.PairBudget = 100
	rep := race.Detect(a, sh, g, opts)
	if !rep.TimedOut {
		t.Errorf("tiny budget should time out")
	}
	if rep.PairsChecked > 100 {
		t.Errorf("budget exceeded: %d pairs", rep.PairsChecked)
	}
}

// An analysis stopped at its step budget may lack the PAG node of a
// location its points-to sets reach. OSA, SHB and detection skip such an
// access instead of panicking; the result is partial anyway.
func TestStepBudgetPartialAnalysis(t *testing.T) {
	entries := ir.DefaultEntryConfig()
	p, _ := workload.ByName("zookeeper")
	prog := workload.Build(p, entries)
	for _, budget := range []int64{100, 1000, 5000} {
		a := pta.New(prog, pta.Config{Policy: opa(), Entries: entries, StepBudget: budget})
		if err := a.Solve(); !errors.Is(err, pta.ErrBudget) {
			t.Fatalf("step budget %d: Solve = %v, want ErrBudget", budget, err)
		}
		sh := osa.Analyze(a)
		g := shb.Build(a, shb.Config{})
		race.Detect(a, sh, g, race.O2Options())
	}
}

func TestSelfRaceOnReplicatedOriginFlag(t *testing.T) {
	// Under 0-ctx the loop origin carries the replication flag, so its
	// single write self-races.
	_, rep := detect(t, `
class S { field v; }
class W {
  field s;
  W(s) { this.s = s; }
  run() { x = this.s; x.v = this; }
}
main {
  s = new S();
  while (i) {
    w = new W(s);
    w.start();
  }
}
`, pta.Policy{Kind: pta.Insensitive}, race.O2Options(), false)
	if len(rep.Races) != 1 {
		t.Fatalf("replicated origin should self-race: got %d", len(rep.Races))
	}
	r := rep.Races[0]
	if r.A.Pos != r.B.Pos {
		t.Errorf("self-race should report the same site twice")
	}
}

func TestRaceReportDeterminism(t *testing.T) {
	entries := ir.DefaultEntryConfig()
	p, _ := workload.ByName("tomcat")
	prog := workload.Build(p, entries)
	_, rep1 := detectProg(t, prog, opa(), race.O2Options(), false)
	_, rep2 := detectProg(t, prog, opa(), race.O2Options(), false)
	if len(rep1.Races) != len(rep2.Races) {
		t.Fatalf("nondeterministic race counts: %d vs %d", len(rep1.Races), len(rep2.Races))
	}
	for i := range rep1.Races {
		a, b := rep1.Races[i], rep2.Races[i]
		if a.A.Pos != b.A.Pos || a.B.Pos != b.B.Pos {
			t.Fatalf("race %d ordering differs: %v vs %v", i, a, b)
		}
	}
}

func TestMainEpilogueOrderedByJoin(t *testing.T) {
	_, rep := detect(t, `
class S { field v; }
class W {
  field s;
  W(s) { this.s = s; }
  run() { x = this.s; x.v = this; }
}
main {
  s = new S();
  w1 = new W(s);
  w2 = new W(s);
  w1.start();
  w2.start();
  w1.join();
  w2.join();
  s.v = null;
}
`, opa(), race.O2Options(), false)
	// Worker-vs-worker race remains; main's epilogue write is ordered.
	if len(rep.Races) != 1 {
		t.Fatalf("want only the worker-worker race, got %d", len(rep.Races))
	}
	for _, r := range rep.Races {
		if r.A.Origin == pta.MainOrigin || r.B.Origin == pta.MainOrigin {
			t.Errorf("main epilogue should be ordered by the joins: %s", r.String())
		}
	}
}

type shbRun struct {
	graph  *shb.Graph
	report *race.Report
}

func detectSHB(t *testing.T, src string) (*pta.Analysis, shbRun) {
	return detectSHBWith(t, src, opa())
}

func detectSHBWith(t *testing.T, src string, pol pta.Policy) (*pta.Analysis, shbRun) {
	t.Helper()
	prog, err := lang.Compile("t.mini", src, ir.DefaultEntryConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := pta.New(prog, pta.Config{Policy: pol, Entries: ir.DefaultEntryConfig()})
	if err := a.Solve(); err != nil {
		t.Fatal(err)
	}
	sh := osa.Analyze(a)
	g := shb.Build(a, shb.Config{})
	return a, shbRun{g, race.Detect(a, sh, g, race.O2Options())}
}

func detectAndroidSHB(t *testing.T, src string) (*pta.Analysis, shbRun) {
	t.Helper()
	prog, err := lang.Compile("t.mini", src, ir.DefaultEntryConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := pta.New(prog, pta.Config{Policy: opa(), Entries: ir.DefaultEntryConfig()})
	if err := a.Solve(); err != nil {
		t.Fatal(err)
	}
	sh := osa.Analyze(a)
	g := shb.Build(a, shb.Config{AndroidEvents: true})
	return a, shbRun{g, race.Detect(a, sh, g, race.O2Options())}
}
