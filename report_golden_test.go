package o2

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

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
