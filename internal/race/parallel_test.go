package race_test

import (
	"reflect"
	"testing"

	"o2/internal/ir"
	"o2/internal/obs"
	"o2/internal/osa"
	"o2/internal/pta"
	"o2/internal/race"
	"o2/internal/shb"
	"o2/internal/workload"
)

// ablationVariants are the four optimization combinations the ablation
// benchmarks compare: full O2 and each §4.1 optimization disabled alone.
var ablationVariants = map[string]race.Options{
	"full":        race.O2Options(),
	"noRegions":   {RegionMerge: false, CanonicalLocksets: true, HBCache: true, OSAFilter: true},
	"noCanonLock": {RegionMerge: true, CanonicalLocksets: false, HBCache: true, OSAFilter: true},
	"noHBCache":   {RegionMerge: true, CanonicalLocksets: true, HBCache: false, OSAFilter: true},
}

// differentialPresets are the seeded workload programs the parallel
// detector is differenced against the sequential one on: a cross-section
// of every preset family (Dacapo-style, Android-style, distributed,
// C-style).
var differentialPresets = []string{
	"avrora", "batik", "eclipse", "h2", "jython", "luindex", "lusearch",
	"pmd", "sunflow", "tomcat", "tradebeans", "xalan",
	"connectbot", "sipdroid", "tasks", "vlc",
	"hdfs", "zookeeper",
	"memcached", "redis",
}

func solvePreset(t *testing.T, name string) (*pta.Analysis, *osa.Result, *shb.Graph) {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("preset %s missing", name)
	}
	entries := ir.DefaultEntryConfig()
	prog := workload.Build(p, entries)
	a := pta.New(prog, pta.Config{Policy: opa(), Entries: entries})
	if err := a.Solve(); err != nil {
		t.Fatal(err)
	}
	sh := osa.Analyze(a)
	g := shb.Build(a, shb.Config{})
	return a, sh, g
}

// sameReport asserts that two reports agree on everything the detector
// computes deterministically: the exact race list and every work counter.
func sameReport(t *testing.T, label string, seq, par *race.Report) {
	t.Helper()
	if !reflect.DeepEqual(seq.Races, par.Races) {
		t.Errorf("%s: race lists differ (%d vs %d races)", label, len(seq.Races), len(par.Races))
		return
	}
	if seq.Representatives != par.Representatives {
		t.Errorf("%s: Representatives %d vs %d", label, seq.Representatives, par.Representatives)
	}
	if seq.AccessNodes != par.AccessNodes {
		t.Errorf("%s: AccessNodes %d vs %d", label, seq.AccessNodes, par.AccessNodes)
	}
	if seq.PairsChecked != par.PairsChecked {
		t.Errorf("%s: PairsChecked %d vs %d", label, seq.PairsChecked, par.PairsChecked)
	}
	if seq.HBQueries != par.HBQueries {
		t.Errorf("%s: HBQueries %d vs %d", label, seq.HBQueries, par.HBQueries)
	}
	if seq.LockChecks != par.LockChecks {
		t.Errorf("%s: LockChecks %d vs %d", label, seq.LockChecks, par.LockChecks)
	}
	if seq.TimedOut != par.TimedOut {
		t.Errorf("%s: TimedOut %v vs %v", label, seq.TimedOut, par.TimedOut)
	}
}

// detectObserved runs Detect with a fresh progress tracker and
// attribution sink attached, and checks that the final progress snapshot
// agrees with the report: every race counted once and, with no pair
// budget, every candidate pair examined.
func detectObserved(t *testing.T, label string, a *pta.Analysis, sh *osa.Result, g *shb.Graph, opts race.Options) (*race.Report, *race.Attribution) {
	t.Helper()
	opts.Progress = obs.NewProgress()
	opts.Attr = race.NewAttribution(a.Origins.Len())
	rep := race.Detect(a, sh, g, opts)
	snap := opts.Progress.Snapshot()
	if snap.Races != int64(len(rep.Races)) {
		t.Errorf("%s: progress counts %d races, report has %d", label, snap.Races, len(rep.Races))
	}
	if snap.PairsDone != snap.PairsTotal {
		t.Errorf("%s: progress examined %d of %d pairs", label, snap.PairsDone, snap.PairsTotal)
	}
	return rep, opts.Attr
}

// sameAttribution asserts that two runs credited every origin with the
// same pair, HB-query and race counts.
func sameAttribution(t *testing.T, label string, seq, par *race.Attribution) {
	t.Helper()
	if !reflect.DeepEqual(seq.Pairs, par.Pairs) {
		t.Errorf("%s: attribution Pairs differ", label)
	}
	if !reflect.DeepEqual(seq.HBQueries, par.HBQueries) {
		t.Errorf("%s: attribution HBQueries differ", label)
	}
	if !reflect.DeepEqual(seq.Races, par.Races) {
		t.Errorf("%s: attribution Races differ", label)
	}
}

// TestParallelDifferential asserts that the parallel detector produces a
// report identical to the sequential one on every seeded workload program,
// for every ablation option combination and several worker counts, and
// that the live progress and per-origin attribution agree too.
func TestParallelDifferential(t *testing.T) {
	names := differentialPresets
	if testing.Short() {
		names = names[:6]
	}
	for _, name := range names {
		a, sh, g := solvePreset(t, name)
		for vname, opts := range ablationVariants {
			label := name + "/" + vname
			seqOpts := opts
			seqOpts.Workers = 1
			seq, seqAttr := detectObserved(t, label+"/seq", a, sh, g, seqOpts)
			for _, w := range []int{2, 3, 4, 8} {
				parOpts := opts
				parOpts.Workers = w
				par, parAttr := detectObserved(t, label, a, sh, g, parOpts)
				sameReport(t, label, seq, par)
				sameAttribution(t, label, seqAttr, parAttr)
			}
		}
	}
}

// TestParallelDifferentialAblationSoundness extends the existing
// soundness check: the naive baseline and the OSA-filter-off variant must
// also agree between sequential and parallel execution.
func TestParallelDifferentialAblationSoundness(t *testing.T) {
	extra := map[string]race.Options{
		"naive": race.NaiveOptions(),
		"noOSA": {RegionMerge: true, CanonicalLocksets: true, HBCache: true, OSAFilter: false},
	}
	for _, name := range []string{"avrora", "memcached"} {
		a, sh, g := solvePreset(t, name)
		for vname, opts := range extra {
			seqOpts := opts
			seqOpts.Workers = 1
			seq := race.Detect(a, sh, g, seqOpts)
			parOpts := opts
			parOpts.Workers = 8
			par := race.Detect(a, sh, g, parOpts)
			sameReport(t, name+"/"+vname, seq, par)
		}
	}
}

// TestWorkersZeroDefaultsToParallel asserts the GOMAXPROCS default also
// matches the sequential report (the common caller path sets Workers = 0).
func TestWorkersZeroDefaultsToParallel(t *testing.T) {
	a, sh, g := solvePreset(t, "tomcat")
	seqOpts := race.O2Options()
	seqOpts.Workers = 1
	seq := race.Detect(a, sh, g, seqOpts)
	def := race.Detect(a, sh, g, race.O2Options())
	sameReport(t, "tomcat/default", seq, def)
}

// TestRacesInReportOrder asserts that Detect lists the races of each of
// the 31 presets in RaceLess order, one per signature, at one, two and
// four workers: Detect sorts races by their packed sig ranks, which must
// order them as RaceLess does.
func TestRacesInReportOrder(t *testing.T) {
	presets := append(append([]workload.Preset(nil), workload.Table5...), workload.Table6...)
	presets = append(presets, workload.GoSync())
	total := 0
	for _, p := range presets {
		a, sh, g := solvePreset(t, p.Name)
		for _, w := range []int{1, 2, 4} {
			opts := race.O2Options()
			opts.Workers = w
			rs := race.Detect(a, sh, g, opts).Races
			for i := 1; i < len(rs); i++ {
				if !race.RaceLess(&rs[i-1], &rs[i]) {
					t.Errorf("%s workers=%d: race %d (%s) does not sort before race %d (%s)", p.Name, w, i-1, &rs[i-1], i, &rs[i])
					break
				}
			}
			total += len(rs)
		}
	}
	if total == 0 {
		t.Fatal("no preset reported a race")
	}
}
