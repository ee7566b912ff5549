package truth

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"o2/internal/race"
)

var updateWitness = flag.Bool("update-witness", false, "rewrite the witness golden file")

// witnessSlice is the corpus slice the witness golden covers: the three
// figure patterns (thread, event and nested-origin races), a mixed
// thread×event program, a disjoint-lock program (exercising the lockset
// derivation with resolved names) and a replicated event handler
// (exercising the replicated-origin ordering verdict).
var witnessSlice = []string{
	"figure1_threads_events",
	"figure2_origins",
	"figure3_super_ctor",
	"mixed_thread_event",
	"lock_distinct_locks",
	"event_replicated",
}

func witnessReport(t *testing.T) []byte {
	t.Helper()
	progs, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Program{}
	for i := range progs {
		byName[progs[i].Name] = &progs[i]
	}
	report := map[string][]*race.Witness{}
	for _, name := range witnessSlice {
		p, ok := byName[name]
		if !ok {
			t.Fatalf("corpus program %q missing", name)
		}
		res, err := p.Analyze()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ws := race.Witnesses(res.Analysis, res.Graph, res.Report)
		// Witnesses shares one OriginInfo per origin; each witness must
		// equal the one BuildWitness derives for its race alone.
		for i := range ws {
			if one := race.BuildWitness(res.Analysis, res.Graph, &res.Report.Races[i]); !reflect.DeepEqual(one, ws[i]) {
				t.Errorf("%s race %d: Witnesses and BuildWitness disagree", name, i)
			}
		}
		report[name] = ws
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestWitnessGolden pins the Witness JSON schema and its byte-stability
// over a slice of the oracle corpus: field names, verdict spellings,
// spawn chains and resolved lock names must match the checked-in golden
// exactly. Regenerate after a deliberate schema change with:
//
//	go test ./internal/truth -run WitnessGolden -args -update-witness
func TestWitnessGolden(t *testing.T) {
	got := witnessReport(t)
	path := filepath.Join("testdata", "witness_golden.json")
	if *updateWitness {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with `go test ./internal/truth -run WitnessGolden -args -update-witness`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("witness JSON drifted from %s\ngot:\n%s", path, got)
	}
}

// TestWitnessDeterministic runs the slice twice in-process and requires
// byte-identical output — the acceptance criterion behind the golden.
func TestWitnessDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	one := witnessReport(t)
	two := witnessReport(t)
	if !bytes.Equal(one, two) {
		t.Error("witness JSON differs across repeated runs")
	}
}
