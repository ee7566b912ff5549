package o2

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"o2/internal/ir"
	"o2/internal/race"
	"o2/internal/shb"
	"o2/internal/workload"
)

const reportGoldenFile = "testdata/report_golden.txt"

// reportDigest hashes everything a run reports: the race records and
// witnesses as JSON, every detection counter except the wall time, and
// the size of the SHB graph the races were found in.
func reportDigest(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(res.RaceRecords()); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(race.Witnesses(res.Analysis, res.Graph, res.Report)); err != nil {
		t.Fatal(err)
	}
	rep := *res.Report
	rep.Races, rep.Elapsed = nil, 0
	fmt.Fprintf(h, "%+v\n", rep)
	g := res.Graph
	edges := 0
	for s := range g.Segs {
		edges += len(g.OutEdges(shb.SegID(s)))
	}
	fmt.Fprintf(h, "shb %d nodes %d edges %d segments %d regions %d locksets\n",
		len(g.Nodes), edges, len(g.Segs), g.Regions, g.Locksets.Len())
	return hex.EncodeToString(h.Sum(nil))
}

// TestReportGolden pins the report of the 31 benchmark presets under
// DefaultConfig: races, witnesses, detection counters and SHB sizes. Each
// preset runs at one and two detection workers, which must agree. A
// change to the analysis internals must leave every line unchanged; on a
// deliberate change to the reports, replace the golden lines with the
// ones this test prints.
func TestReportGolden(t *testing.T) {
	presets := append(append([]workload.Preset(nil), workload.Table5...), workload.Table6...)
	presets = append(presets, workload.GoSync())
	want := readReportGolden(t)
	var fresh strings.Builder
	bad := 0
	for _, p := range presets {
		var digests [2]string
		for i, workers := range []int{1, 2} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			res, err := Analyze(context.Background(), workload.Build(p, cfg.Entries), cfg)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			digests[i] = reportDigest(t, res)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: report digest %s at one worker, %s at two", p.Name, digests[0], digests[1])
		}
		got := digests[0]
		fmt.Fprintf(&fresh, "%s  %s\n", got, p.Name)
		if want[p.Name] != got {
			bad++
			t.Errorf("%s: report digest %s, golden %q", p.Name, got, want[p.Name])
		}
		delete(want, p.Name)
	}
	for name := range want {
		bad++
		t.Errorf("golden names %s, which is no longer a preset", name)
	}
	if bad > 0 {
		t.Logf("current digests (%s format):\n%s", reportGoldenFile, fresh.String())
	}
}

// TestReportReuseLeavesNoTrace runs analyses that stop in every way in
// one process, so each one after the first works in solver and detection
// state an earlier one left in the pools: complete runs, a solve stopped
// by its step budget, a detection stopped by its pair budget, and runs
// canceled mid-solve and mid-detection. Every complete run still matches
// TestReportGolden's digest, including one of the first run's program.
func TestReportReuseLeavesNoTrace(t *testing.T) {
	want := readReportGolden(t)
	entries := DefaultConfig().Entries
	build := func(name string) *ir.Program {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no preset %s", name)
		}
		return workload.Build(p, entries)
	}
	// One worker keeps detection on the test's goroutine, so the pooled
	// state a run puts back is the one the next run takes; every digest
	// is the same at any worker count.
	one := DefaultConfig()
	one.Workers = 1
	check := func(name string, prog *ir.Program) {
		t.Helper()
		res, err := Analyze(context.Background(), prog, one)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := reportDigest(t, res); got != want[name] {
			t.Errorf("%s: report digest %s, golden %s", name, got, want[name])
		}
	}
	zk := build("zookeeper")
	check("zookeeper", zk)
	cfg := DefaultConfig()
	cfg.StepBudget = 5000
	if _, err := Analyze(context.Background(), zk, cfg); !errors.Is(err, ErrBudget) {
		t.Fatalf("step budget: got %v, want ErrBudget", err)
	}
	cfg = DefaultConfig()
	cfg.Detector.PairBudget = 1000
	if res, err := Analyze(context.Background(), zk, cfg); err != nil || !res.Report.TimedOut {
		t.Fatalf("pair budget: got %v, want a report stopped by its budget", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(time.Millisecond, cancel)
	_, err := Analyze(ctx, workload.Build(workload.Linux(), entries), DefaultConfig())
	cancel()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled run: got %v, want ErrCanceled", err)
	}
	cancelMidDetect(t, DefaultConfig())
	check("avrora", build("avrora"))
	check("zookeeper", zk)
	check("zookeeper", build("zookeeper"))
}

// TestConcurrentReuseLeavesNoTrace analyzes presets of very different
// sizes from four goroutines at two detection workers each, so pooled
// solver states, detection scratches and SHB node buffers pass between
// goroutines, and between telegram, the largest preset, and the smaller
// ones that reuse the tables it grew. Every report digest equals the
// one a sequential run reports. ./ci.sh race runs it under the race
// detector.
func TestConcurrentReuseLeavesNoTrace(t *testing.T) {
	names := []string{"telegram", "zookeeper", "avrora", "memcached"}
	entries := DefaultConfig().Entries
	build := func(name string) *ir.Program {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no preset %s", name)
		}
		return workload.Build(p, entries)
	}
	one := DefaultConfig()
	one.Workers = 1
	want := make([]string, len(names))
	for i, name := range names {
		res, err := Analyze(context.Background(), build(name), one)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[i] = reportDigest(t, res)
	}
	two := DefaultConfig()
	two.Workers = 2
	type run struct {
		g, i int
		res  *Result
		err  error
	}
	const goroutines, rounds = 4, 2
	runs := make(chan run, goroutines*rounds*len(names)) // a slot per send: no sender waits on the digests
	for g := range goroutines {
		progs := make([]*ir.Program, len(names))
		for i, name := range names {
			progs[i] = build(name)
		}
		go func() {
			for k := range rounds * len(names) {
				i := (g + k) % len(names)
				res, err := Analyze(context.Background(), progs[i], two)
				runs <- run{g, i, res, err}
			}
		}()
	}
	for range cap(runs) {
		r := <-runs
		if r.err != nil {
			t.Errorf("goroutine %d, %s: %v", r.g, names[r.i], r.err)
		} else if got := reportDigest(t, r.res); got != want[r.i] {
			t.Errorf("goroutine %d, %s: report digest %s, sequential %s", r.g, names[r.i], got, want[r.i])
		}
	}
}

// readReportGolden parses the golden: "<sha256>  <name>" lines, '#'
// comments.
func readReportGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(reportGoldenFile)
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
			t.Fatalf("%s: malformed line %q", reportGoldenFile, line)
		}
		out[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
