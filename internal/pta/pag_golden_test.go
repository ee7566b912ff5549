package pta_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"o2/internal/ir"
	"o2/internal/pta"
	"o2/internal/workload"
)

const pagGoldenFile = "testdata/pag_golden.txt"

// pagDigest hashes a solved analysis: its Stats counters, then every PAG
// node in NodeID order with its name and sorted points-to set. Any change
// to node creation order, node naming or a points-to set changes it.
func pagDigest(a *pta.Analysis) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", a.Stats())
	for id := 0; id < a.NumNodes(); id++ {
		n := pta.NodeID(id)
		fmt.Fprintf(h, "%d %s %v\n", id, pta.NodeString(a, n), pta.NodePointsTo(a, n).Slice())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPAGGolden pins the pointer assignment graph the solver builds for
// the 31 benchmark presets under the origin policy to digests recorded
// before the solver's node tables became dense. OSA, SHB and detection
// key locations by NodeID, so a solver change must keep every node's
// identity, not only the race reports. On a deliberate change, replace
// the golden lines with the ones this test prints.
func TestPAGGolden(t *testing.T) {
	entries := ir.DefaultEntryConfig()
	presets := append(append([]workload.Preset(nil), workload.Table5...), workload.Table6...)
	presets = append(presets, workload.GoSync())
	want := readPAGGolden(t)
	var fresh strings.Builder
	bad := 0
	for _, p := range presets {
		a := pta.New(workload.Build(p, entries), pta.Config{Policy: origin1(), Entries: entries})
		if err := a.Solve(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		got := pagDigest(a)
		fmt.Fprintf(&fresh, "%s  %s\n", got, p.Name)
		if want[p.Name] != got {
			bad++
			t.Errorf("%s: PAG digest %s, golden %q", p.Name, got, want[p.Name])
		}
		delete(want, p.Name)
	}
	for name := range want {
		bad++
		t.Errorf("golden names %s, which is no longer a preset", name)
	}
	if bad > 0 {
		t.Logf("current digests (%s format):\n%s", pagGoldenFile, fresh.String())
	}
}

// readPAGGolden parses the golden: "<sha256>  <name>" lines, '#' comments.
func readPAGGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(pagGoldenFile)
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
			t.Fatalf("%s: malformed line %q", pagGoldenFile, line)
		}
		out[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
