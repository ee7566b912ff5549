package bench

import (
	"fmt"
	"io"
	"time"

	"o2/internal/cases"
	"o2/internal/deadlock"
	"o2/internal/escape"
	"o2/internal/ir"
	"o2/internal/lang"
	"o2/internal/osa"
	"o2/internal/oversync"
	"o2/internal/pta"
	"o2/internal/race"
	"o2/internal/racerd"
	"o2/internal/report"
	"o2/internal/shb"
	"o2/internal/workload"
)

const timeoutCell = ">budget"

// Table5 regenerates the paper's Table 5: pointer-analysis and race-
// detection time per policy on the JVM-style presets, plus the
// RacerD-style comparator. Returns the two sub-tables (left: PTA, right:
// detection).
func Table5(w io.Writer, o Opts) (*report.Table, *report.Table) {
	presets := workload.Table5
	if o.Quick {
		presets = []workload.Preset{presets[0], presets[9], presets[21], presets[26]}
	}
	entries := ir.DefaultEntryConfig()

	left := &report.Table{
		Title: "Table 5 (left): pointer analysis time",
		Cols:  []string{"App", "#O", "0-ctx", "OPA", "1-CFA", "2-CFA", "1-obj", "2-obj"},
		Note:  timeoutCell + ": exceeded the step budget (the paper's >4h).",
	}
	right := &report.Table{
		Title: "Table 5 (right): race detection time (incl. pointer analysis)",
		Cols:  []string{"App", "0-ctx", "O2", "O2-vs-0ctx", "1-CFA", "2-CFA", "1-obj", "2-obj", "RacerD"},
		Note:  timeoutCell + ": pointer analysis or pair budget exhausted.",
	}

	for _, p := range presets {
		prog := workload.Build(p, entries)
		var ptaCells, detCells []interface{}
		numOrigins := 0
		var t0ctx, tO2 time.Duration
		for _, pol := range AllPolicies {
			pr := RunPTA(prog, pol, entries, o.steps())
			if pol == POPA {
				numOrigins = pr.Stats.Origins
			}
			if pr.TimedOut {
				ptaCells = append(ptaCells, timeoutCell)
				detCells = append(detCells, timeoutCell)
				continue
			}
			ptaCells = append(ptaCells, report.Dur(pr.Time))
			dr := RunDetect(pr.A, o.detectOpts(), false, o.pairs())
			total := pr.Time + dr.OSATime + dr.SHBTime + dr.Time
			switch {
			case dr.TimedOut:
				detCells = append(detCells, timeoutCell)
			default:
				detCells = append(detCells, report.Dur(total))
			}
			if pol == P0 && !dr.TimedOut {
				t0ctx = total
			}
			if pol == POPA && !dr.TimedOut {
				tO2 = total
			}
		}
		rd := racerd.Analyze(prog, entries)

		leftRow := append([]interface{}{p.Name, numOrigins}, ptaCells...)
		left.Add(leftRow...)
		rightRow := []interface{}{p.Name, detCells[0], detCells[1], report.Speedup(t0ctx, tO2)}
		rightRow = append(rightRow, detCells[2], detCells[3], detCells[4], detCells[5], report.Dur(rd.Elapsed))
		right.Add(rightRow...)
	}
	left.Render(w)
	right.Render(w)
	return left, right
}

// Table6 regenerates the paper's Table 6: C/C++-style presets with
// time/#Pointer/#Object/#Edge for 0-ctx, O2 (OPA) and 2-CFA.
func Table6(w io.Writer, o Opts) *report.Table {
	entries := ir.DefaultEntryConfig()
	t := &report.Table{
		Title: "Table 6: C/C++-style benchmarks",
		Cols:  []string{"App", "#Instr", "Metric", "0-ctx", "O2", "2-CFA"},
		Note:  timeoutCell + " models the paper's OOM/timeout cells.",
	}
	for _, p := range workload.Table6 {
		prog := workload.Build(p, entries)
		runs := make([]PTARun, 3)
		for i, pol := range []pta.Policy{P0, POPA, P2CFA} {
			runs[i] = RunPTA(prog, pol, entries, o.steps())
		}
		cell := func(i int, f func(PTARun) interface{}) interface{} {
			if runs[i].TimedOut {
				return timeoutCell
			}
			return f(runs[i])
		}
		kloc := fmt.Sprintf("%d", prog.NumInstrs)
		t.Add(p.Name, kloc, "Time",
			cell(0, func(r PTARun) interface{} { return report.Dur(r.Time) }),
			cell(1, func(r PTARun) interface{} { return report.Dur(r.Time) }),
			cell(2, func(r PTARun) interface{} { return report.Dur(r.Time) }))
		t.Add("", "", "#Pointer",
			cell(0, func(r PTARun) interface{} { return r.Stats.Pointers }),
			cell(1, func(r PTARun) interface{} { return r.Stats.Pointers }),
			cell(2, func(r PTARun) interface{} { return r.Stats.Pointers }))
		t.Add("", "", "#Object",
			cell(0, func(r PTARun) interface{} { return r.Stats.Objects }),
			cell(1, func(r PTARun) interface{} { return r.Stats.Objects }),
			cell(2, func(r PTARun) interface{} { return r.Stats.Objects }))
		t.Add("", "", "#Edge",
			cell(0, func(r PTARun) interface{} { return r.Stats.Edges }),
			cell(1, func(r PTARun) interface{} { return r.Stats.Edges }),
			cell(2, func(r PTARun) interface{} { return r.Stats.Edges }))
	}
	t.Render(w)
	return t
}

// Table7 regenerates the paper's Table 7: OSA's origin-shared access count
// and time versus the TLOA-style escape analysis (run over 2-CFA, which is
// why it is slow or times out).
func Table7(w io.Writer, o Opts) *report.Table {
	entries := ir.DefaultEntryConfig()
	t := &report.Table{
		Title: "Table 7: OSA vs thread-escape analysis (TLOA-style)",
		Cols:  []string{"App", "#S-access(OSA)", "OSA time(incl OPA)", "#S-access(TLOA)", "TLOA time(incl 2-CFA)"},
		Note:  "TLOA counts every access to an escaped object; OSA computes per-origin sharing.",
	}
	presets := workload.Dacapo()
	if o.Quick {
		presets = presets[:4]
	}
	for _, p := range presets {
		prog := workload.Build(p, entries)
		pr := RunPTA(prog, POPA, entries, o.steps())
		var osaCellA, osaCellT interface{} = timeoutCell, timeoutCell
		if !pr.TimedOut {
			t0 := time.Now()
			sh := osa.Analyze(pr.A)
			osaCellA = sh.SharedAccesses
			osaCellT = report.Dur(pr.Time + time.Since(t0))
		}
		var escA, escT interface{} = timeoutCell, timeoutCell
		pr2 := RunPTA(prog, P2CFA, entries, o.steps())
		if !pr2.TimedOut {
			rep := escape.Analyze(pr2.A)
			escA = rep.SharedAccesses
			escT = report.Dur(pr2.Time + rep.Elapsed)
		}
		t.Add(p.Name, osaCellA, osaCellT, escA, escT)
	}
	t.Render(w)
	return t
}

// Table8 regenerates the paper's Table 8: reported races per policy on the
// Dacapo presets, with reductions normalized to 0-ctx, plus RacerD.
func Table8(w io.Writer, o Opts) *report.Table {
	entries := ir.DefaultEntryConfig()
	t := &report.Table{
		Title: "Table 8: #Races per pointer analysis (reduction vs 0-ctx)",
		Cols:  []string{"App", "0-ctx", "O2", "red%", "1-CFA", "2-CFA", "1-obj", "2-obj", "RacerD"},
		Note:  "≥N: detection hit the pair budget (count is a lower bound).",
	}
	presets := workload.Dacapo()
	if o.Quick {
		presets = presets[:4]
	}
	for _, p := range presets {
		prog := workload.Build(p, entries)
		counts := make([]interface{}, len(AllPolicies))
		base, o2races := -1, -1
		for i, pol := range AllPolicies {
			pr := RunPTA(prog, pol, entries, o.steps())
			if pr.TimedOut {
				counts[i] = timeoutCell
				continue
			}
			dr := RunDetect(pr.A, o.detectOpts(), false, o.pairs())
			n := len(dr.Report.Races)
			if dr.TimedOut {
				counts[i] = fmt.Sprintf("≥%d", n)
				continue
			}
			counts[i] = n
			if pol == P0 {
				base = n
			}
			if pol == POPA {
				o2races = n
			}
		}
		red := "-"
		if base > 0 && o2races >= 0 {
			red = report.Reduction(base, o2races)
		}
		rd := racerd.Analyze(prog, entries)
		t.Add(p.Name, counts[0], counts[1], red, counts[2], counts[3], counts[4], counts[5], len(rd.Warnings))
	}
	t.Render(w)
	return t
}

// Table9 regenerates the paper's Table 9: races (O2 vs RacerD) and
// origin-shared object counts per policy on the distributed-system
// presets.
func Table9(w io.Writer, o Opts) *report.Table {
	entries := ir.DefaultEntryConfig()
	t := &report.Table{
		Title: "Table 9: distributed systems — #Races and #Shared objects",
		Cols:  []string{"App", "O2 races", "RacerD", "#S-obj 0-ctx", "#S-obj 1-CFA", "#S-obj 2-CFA", "#S-obj O2"},
	}
	for _, p := range workload.DistributedSystems() {
		prog := workload.Build(p, entries)
		var o2Races interface{} = timeoutCell
		sobj := make([]interface{}, 4)
		for i, pol := range []pta.Policy{P0, P1CFA, P2CFA, POPA} {
			pr := RunPTA(prog, pol, entries, o.steps())
			if pr.TimedOut {
				sobj[i] = timeoutCell
				continue
			}
			sh := osa.Analyze(pr.A)
			sobj[i] = sh.SharedObjects
			if pol == POPA {
				dr := RunDetect(pr.A, o.detectOpts(), false, o.pairs())
				if dr.TimedOut {
					o2Races = fmt.Sprintf("≥%d", len(dr.Report.Races))
				} else {
					o2Races = len(dr.Report.Races)
				}
			}
		}
		rd := racerd.Analyze(prog, entries)
		t.Add(p.Name, o2Races, len(rd.Warnings), sobj[0], sobj[1], sobj[2], sobj[3])
	}
	t.Render(w)
	return t
}

// CaseResult is one Table 10 case-study outcome.
type CaseResult struct {
	Name     string
	Expected int
	Detected int
	Time     time.Duration
}

// Table10 regenerates the paper's Table 10 over the case-study models:
// O2 must report exactly the confirmed race count of each real-world bug.
func Table10(w io.Writer) ([]CaseResult, *report.Table) {
	cs := cases.Table10
	t := &report.Table{
		Title: "Table 10: new races detected by O2 (confirmed by developers)",
		Cols:  []string{"Case", "Paper", "Detected", "Match", "Thread×Event", "Time"},
	}
	var out []CaseResult
	for _, c := range cs {
		entries := ir.DefaultEntryConfig()
		prog, err := lang.Compile(c.Name+".mini", c.Source, entries)
		if err != nil {
			t.Add(c.Name, c.Races, "compile error", "✗", "", "-")
			continue
		}
		start := time.Now()
		pr := RunPTA(prog, POPA, entries, 0)
		dr := RunDetect(pr.A, race.O2Options(), c.Android, 0)
		dt := time.Since(start)
		n := len(dr.Report.Races)
		match := "✓"
		if n != c.Races {
			match = "✗"
		}
		te := ""
		if c.ThreadEvent {
			te = "yes"
		}
		t.Add(c.Name, c.Races, n, match, te, dt)
		out = append(out, CaseResult{c.Name, c.Races, n, dt})
	}
	t.Render(w)
	return out, t
}

// Ablation regenerates the §4.1 optimization ablation: detection cost with
// each of the three sound optimizations (and the OSA filter) disabled.
func Ablation(w io.Writer, o Opts) *report.Table {
	entries := ir.DefaultEntryConfig()
	t := &report.Table{
		Title: "Ablation: the three sound optimizations (§4.1)",
		Cols:  []string{"App", "Config", "Detect", "Accesses", "Reps", "Pairs", "HB queries", "Lock checks", "Races"},
		Note:  "naive = D4-style pairwise detection (all optimizations off); Reps = representatives after lock-region merging.",
	}
	variants := []struct {
		name string
		opts race.Options
	}{
		{"O2 (full)", race.O2Options()},
		{"no region merge", func() race.Options { x := race.O2Options(); x.RegionMerge = false; return x }()},
		{"no canonical locksets", func() race.Options { x := race.O2Options(); x.CanonicalLocksets = false; return x }()},
		{"no HB cache", func() race.Options { x := race.O2Options(); x.HBCache = false; return x }()},
		{"no OSA filter", func() race.Options { x := race.O2Options(); x.OSAFilter = false; return x }()},
		{"naive (D4-style)", race.NaiveOptions()},
	}
	presets := []string{"avrora", "tomcat", "zookeeper"}
	if o.Quick {
		presets = presets[:1]
	}
	for _, name := range presets {
		p, _ := workload.ByName(name)
		prog := workload.Build(p, entries)
		pr := RunPTA(prog, POPA, entries, o.steps())
		if pr.TimedOut {
			continue
		}
		for _, v := range variants {
			opts := v.opts
			opts.Workers = o.Workers
			opts.PairBudget = o.pairs()
			dr := RunDetect(pr.A, opts, false, o.pairs())
			races := fmt.Sprintf("%d", len(dr.Report.Races))
			if dr.TimedOut {
				races = fmt.Sprintf("≥%d (budget)", len(dr.Report.Races))
			}
			t.Add(p.Name, v.name, dr.Time, dr.Report.AccessNodes, dr.Report.Representatives,
				dr.Report.PairsChecked, dr.Report.HBQueries, dr.Report.LockChecks, races)
		}
	}
	t.Render(w)
	return t
}

// Table3 regenerates the paper's Table 3 empirically: analysis cost growth
// as the program scales, per context policy. The paper states worst-case
// complexity; the reproduction reports measured steps across a size sweep
// so the relative growth rates are visible.
func Table3(w io.Writer, o Opts) *report.Table {
	entries := ir.DefaultEntryConfig()
	t := &report.Table{
		Title: "Table 3 (empirical): propagation steps vs program scale",
		Cols:  []string{"Scale", "#Instr", "0-ctx", "OPA", "1-CFA", "2-CFA", "1-obj", "2-obj"},
		Note:  "OPA grows like 0-ctx times the origin factor; deep contexts grow superlinearly.",
	}
	baseP, _ := workload.ByName("avrora")
	scales := []int{1, 2, 3, 4}
	if o.Quick {
		scales = scales[:2]
	}
	for _, s := range scales {
		p := workload.Scale(baseP, s)
		prog := workload.Build(p, entries)
		row := []interface{}{s, prog.NumInstrs}
		for _, pol := range AllPolicies {
			pr := RunPTA(prog, pol, entries, o.steps())
			if pr.TimedOut {
				row = append(row, timeoutCell)
			} else {
				row = append(row, pr.Stats.Steps)
			}
		}
		t.Add(row...)
	}
	t.Render(w)
	return t
}

// Android regenerates the §4.2 comparison: race counts on the Android-app
// presets with and without the global event-lock treatment. Android mode
// must remove every event–event pair while keeping thread–event races.
func Android(w io.Writer, o Opts) *report.Table {
	entries := ir.DefaultEntryConfig()
	t := &report.Table{
		Title: "§4.2: Android event serialization",
		Cols:  []string{"App", "Races (plain)", "Races (android)", "Event-event left", "Thread-event left"},
		Note:  "Android mode serializes handlers on the main thread: event-event pairs vanish by construction.",
	}
	names := []string{"connectbot", "sipdroid", "k9mail", "tasks", "fbreader", "vlc", "firefox-focus", "zoom", "chrome"}
	if o.Quick {
		names = names[:3]
	}
	for _, name := range names {
		p, _ := workload.ByName(name)
		prog := workload.Build(p, entries)
		pr := RunPTA(prog, POPA, entries, o.steps())
		if pr.TimedOut {
			t.Add(p.Name, timeoutCell, timeoutCell, "-", "-")
			continue
		}
		plain := RunDetect(pr.A, o.detectOpts(), false, o.pairs())
		android := RunDetect(pr.A, o.detectOpts(), true, o.pairs())
		ee, te := 0, 0
		for _, r := range android.Report.Races {
			ka := pr.A.Origins.Get(r.A.Origin).Kind
			kb := pr.A.Origins.Get(r.B.Origin).Kind
			switch {
			case ka == pta.KindEvent && kb == pta.KindEvent:
				ee++
			case ka != kb:
				te++
			}
		}
		t.Add(p.Name, len(plain.Report.Races), len(android.Report.Races), ee, te)
	}
	t.Render(w)
	return t
}

// Extensions reports the beyond-race-detection analyses (deadlock,
// over-synchronization) over the presets that embed their target patterns.
func Extensions(w io.Writer, o Opts) *report.Table {
	entries := ir.DefaultEntryConfig()
	t := &report.Table{
		Title: "Extensions: deadlock and over-synchronization analyses",
		Cols:  []string{"App", "Lock edges", "Deadlocks", "Regions", "Useful", "Unnecessary", "Time"},
		Note:  "Deadlock cycles come from the presets' inverted lock pairs; unnecessary regions guard only origin-local data.",
	}
	names := []string{"hbase", "hdfs", "yarn", "zookeeper", "memcached", "redis"}
	if o.Quick {
		names = names[:2]
	}
	for _, name := range names {
		p, _ := workload.ByName(name)
		prog := workload.Build(p, entries)
		pr := RunPTA(prog, POPA, entries, o.steps())
		if pr.TimedOut {
			continue
		}
		start := time.Now()
		sh := osa.Analyze(pr.A)
		g := shb.Build(pr.A, shb.Config{})
		dl := deadlock.Analyze(pr.A, g)
		ov := oversync.Analyze(pr.A, sh, g)
		t.Add(p.Name, dl.Edges, len(dl.Warnings), ov.Regions, ov.UsefulRegions, len(ov.Warnings), time.Since(start))
	}
	t.Render(w)
	return t
}

// Linux regenerates the §5.4 Linux-kernel statistics: origin counts by
// kind, object and access sharing ratios, and detected races.
func Linux(w io.Writer, o Opts) *report.Table {
	entries := ir.DefaultEntryConfig()
	p := workload.Linux()
	prog := workload.Build(p, entries)
	a := pta.New(prog, pta.Config{
		Policy: POPA, Entries: entries,
		ReplicateEvents: true, // concurrent invocations of each system call
		StepBudget:      o.steps() * 4,
	})
	start := time.Now()
	if err := a.Solve(); err != nil {
		fmt.Fprintf(w, "linux: pointer analysis exceeded budget\n")
		return nil
	}
	sh := osa.Analyze(a)
	g := shb.Build(a, shb.Config{})
	opts := o.detectOpts()
	opts.PairBudget = o.pairs() * 4
	rep := race.Detect(a, sh, g, opts)
	elapsed := time.Since(start)

	threads, events := 0, 0
	for _, org := range a.Origins.Origins {
		switch org.Kind {
		case pta.KindThread:
			threads++
		case pta.KindEvent:
			events++
		}
	}
	t := &report.Table{
		Title: "Linux kernel model (§5.4)",
		Cols:  []string{"Metric", "Value"},
		Note:  "Paper: 1090 origins, 329/71459 origin-shared objects, 1051/36321 shared accesses, 26 races in <8min.",
	}
	t.Add("origins (total)", a.Origins.Len())
	t.Add("origins (syscall/driver events)", events)
	t.Add("origins (kthreads/irq threads)", threads)
	t.Add("abstract objects", a.NumObjs())
	t.Add("origin-shared locations", len(sh.Shared))
	t.Add("origin-shared objects", sh.SharedObjects)
	t.Add("access statements visited", sh.Accesses)
	t.Add("shared access statements", sh.SharedAccesses)
	t.Add("races reported", len(rep.Races))
	t.Add("analysis time", elapsed)
	t.Render(w)
	return t
}
