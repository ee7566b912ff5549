package obs

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety exercises every entry point on nil receivers: the
// disabled-registry path used throughout the pipeline's hot loops.
func TestNilSafety(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	c := r.Counter("x")
	if c != nil {
		t.Fatal("nil registry interned a counter")
	}
	c.Add(5)
	c.Inc()
	c.Set(7)
	if c.Load() != 0 {
		t.Fatal("nil counter holds a value")
	}
	r.SetGauge("g", 1)
	s := r.StartSpan("phase")
	s2 := s.Child("shard")
	s2.End()
	s.End()
	if s.Wall() != 0 {
		t.Fatal("nil span has wall time")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry produced a snapshot")
	}
	r.WriteSpans(&strings.Builder{})
	var rs *RunStats
	if rs.Deterministic() != nil {
		t.Fatal("nil RunStats produced a deterministic view")
	}
}

func TestCountersAndGauges(t *testing.T) {
	r := New()
	c := r.Counter("race.pairs_checked")
	c.Add(3)
	c.Inc()
	if got := c.Load(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("race.pairs_checked") != c {
		t.Fatal("counter not interned")
	}
	r.SetGauge("shb.nodes", 42)
	r.SetGauge("shb.nodes", 43)
	r.Counter("zero.counter") // stays 0: must be omitted from the report
	rs := r.Snapshot()
	if rs.Schema != SchemaVersion {
		t.Fatalf("schema = %d, want %d", rs.Schema, SchemaVersion)
	}
	if rs.Counters["race.pairs_checked"] != 4 {
		t.Fatalf("snapshot counters = %v", rs.Counters)
	}
	if rs.Gauges["shb.nodes"] != 43 {
		t.Fatalf("snapshot gauges = %v", rs.Gauges)
	}
	if _, ok := rs.Counters["zero.counter"]; ok {
		t.Fatal("zero-valued counter not omitted")
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := New()
	c := r.Counter("n")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
}

func TestSpanTree(t *testing.T) {
	r := New()
	a := r.StartSpan("analyze")
	p := r.StartSpan("pta")
	time.Sleep(time.Millisecond)
	p.End()
	d := r.StartSpan("detect")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := d.Child("worker")
			time.Sleep(time.Millisecond)
			w.End()
		}(i)
	}
	wg.Wait()
	d.End()
	a.End()

	rs := r.Snapshot()
	if len(rs.Phases) != 1 || rs.Phases[0].Name != "analyze" {
		t.Fatalf("roots = %+v", rs.Phases)
	}
	kids := rs.Phases[0].Children
	if len(kids) != 2 || kids[0].Name != "pta" || kids[1].Name != "detect" {
		t.Fatalf("children = %+v", kids)
	}
	if kids[0].WallNS <= 0 {
		t.Fatal("pta span has no wall time")
	}
	if len(kids[1].Children) != 4 {
		t.Fatalf("detect has %d worker shards, want 4", len(kids[1].Children))
	}

	var sb strings.Builder
	r.WriteSpans(&sb)
	out := sb.String()
	for _, want := range []string{"analyze", "pta", "detect", "worker"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteSpans output missing %q:\n%s", want, out)
		}
	}
}

func TestSpanDoubleEndAndCursor(t *testing.T) {
	r := New()
	a := r.StartSpan("a")
	b := r.StartSpan("b")
	b.End()
	b.End() // idempotent
	c := r.StartSpan("c")
	c.End()
	a.End()
	rs := r.Snapshot()
	if len(rs.Phases) != 1 || len(rs.Phases[0].Children) != 2 {
		t.Fatalf("tree = %+v", rs.Phases)
	}
}

func TestDerivedRates(t *testing.T) {
	r := New()
	r.Counter("shb.reach_hits").Add(9)
	r.Counter("shb.reach_misses").Add(1)
	r.SetGauge("race.workers", 2)
	r.SetGauge("race.worker_busy_ns", 150)
	r.SetGauge("race.detect_wall_ns", 100)
	rs := r.Snapshot()
	if got := rs.Rates["shb.reach_hit_rate"]; got != 0.9 {
		t.Fatalf("reach hit rate = %v, want 0.9", got)
	}
	if got := rs.Rates["race.worker_utilization"]; got != 0.75 {
		t.Fatalf("utilization = %v, want 0.75", got)
	}
}

func TestDeterministicStripsTimes(t *testing.T) {
	r := New()
	s := r.StartSpan("pta")
	time.Sleep(time.Millisecond)
	s.End()
	r.Counter("race.pairs_checked").Add(10)
	r.SetGauge("race.detect_wall_ns", 12345)
	r.SetGauge("race.worker_busy_ns", 12000)
	r.SetGauge("race.workers", 8)
	r.SetGauge("shb.nodes", 7)
	r.HeapGauges("detect", HeapCounters{})
	r.Counter("shb.reach_hits").Add(1)
	r.Counter("shb.reach_misses").Add(1)
	det := r.Snapshot().Deterministic()
	if det.Phases[0].WallNS != 0 || det.Phases[0].CPUNS != 0 {
		t.Fatalf("deterministic phases keep times: %+v", det.Phases)
	}
	if _, ok := det.Gauges["race.detect_wall_ns"]; ok {
		t.Fatal("deterministic view keeps _ns gauge")
	}
	if _, ok := det.Gauges["race.workers"]; ok {
		t.Fatal("deterministic view keeps machine-dependent worker count")
	}
	if _, ok := det.Gauges["detect.heap_allocs"]; ok {
		t.Fatal("deterministic view keeps heap-alloc gauge (budget-gated, not byte-compared)")
	}
	if _, ok := det.Gauges["detect.heap_bytes"]; ok {
		t.Fatal("deterministic view keeps heap-bytes gauge")
	}
	if det.Gauges["shb.nodes"] != 7 || det.Counters["race.pairs_checked"] != 10 {
		t.Fatalf("deterministic view dropped data: %+v", det)
	}
	if _, ok := det.Rates["race.worker_utilization"]; ok {
		t.Fatal("deterministic view keeps utilization")
	}
	if det.Rates["shb.reach_hit_rate"] != 0.5 {
		t.Fatalf("deterministic view lost hit rate: %+v", det.Rates)
	}
}

// TestJSONStableRoundTrip pins the top-level JSON field names: changing
// them requires a SchemaVersion bump (and a golden update).
func TestJSONStableRoundTrip(t *testing.T) {
	r := New()
	s := r.StartSpan("pta")
	s.End()
	r.Counter("race.pairs_checked").Add(1)
	r.SetGauge("shb.nodes", 2)
	r.Counter("shb.reach_hits").Add(1)
	data, err := r.Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "phases", "counters", "gauges", "rates"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("report missing %q:\n%s", key, data)
		}
	}
	var back RunStats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaVersion || back.Counters["race.pairs_checked"] != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestWriteFile(t *testing.T) {
	r := New()
	r.Counter("x").Inc()
	path := t.TempDir() + "/stats.json"
	if err := r.Snapshot().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var back RunStats
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["x"] != 1 {
		t.Fatalf("written report = %+v", back)
	}
}
