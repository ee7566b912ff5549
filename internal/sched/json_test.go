package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"o2"
	"o2/internal/corpus"
)

var updateJSON = flag.Bool("update-json", false, "rewrite the JSON projection golden file")

// jsonGoldenInputs cover a witness with an unlocked pair, one with
// channel sync-edge evidence, and a clean program (the empty race list).
var jsonGoldenInputs = []string{
	"../../testdata/smoke_racy.mini",
	"../truth/corpus/gosync_chan_close_race.mini",
	"../truth/corpus/lock_sync_both.mini",
}

// TestJSONProjectionGolden pins the bytes of the two JSON projections of
// a race report: the job summary the scheduler serves (summarize) and the
// streamed corpus record (corpus.NewRecord). Phase timings are zeroed and
// no RunStats are collected, so the output depends only on the analysis.
// Regenerate deliberately with:
//
//	go test ./internal/sched -run JSONProjectionGolden -args -update-json
func TestJSONProjectionGolden(t *testing.T) {
	var buf bytes.Buffer
	for i, path := range jsonGoldenInputs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		res, err := o2.AnalyzeSources(context.Background(), []o2.Source{{Name: name, Bytes: src}}, o2.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res.PTATime, res.OSATime, res.SHBTime, res.DetectTime = 0, 0, 0, 0
		for _, v := range []any{
			summarize(res),
			corpus.NewRecord(o2.CorpusResult{Index: i, Name: name, Result: res}),
		} {
			b, err := json.MarshalIndent(v, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			buf.WriteString("== " + name + "\n")
			buf.Write(b)
			buf.WriteByte('\n')
		}
	}
	golden := filepath.Join("testdata", "json_golden.txt")
	if *updateJSON {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with `go test ./internal/sched -run JSONProjectionGolden -args -update-json`): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON projections drifted from %s:\n%s", golden, buf.Bytes())
	}
}
