package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"o2"
	"o2/internal/sched"
)

const racySrc = `
class S { field data; }
class W {
  field s;
  W(s) { this.s = s; }
  run() { sh = this.s; sh.data = this; }
}
main {
  s = new S();
  t1 = new W(s);
  t2 = new W(s);
  t1.start();
  t2.start();
}
`

const cleanSrc = `
class S { field data; }
class M { }
class W {
  field s; field m;
  W(s, m) { this.s = s; this.m = m; }
  run() { l = this.m; sync (l) { sh = this.s; sh.data = this; } }
}
main {
  s = new S();
  m = new M();
  t1 = new W(s, m);
  t2 = new W(s, m);
  t1.start();
  t2.start();
}
`

func newTestServer(t *testing.T, opts sched.Options) (*httptest.Server, *sched.Scheduler) {
	t.Helper()
	s := sched.New(opts)
	ts := httptest.NewServer(New(s))
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return ts, s
}

func postAnalyze(t *testing.T, url string, req AnalyzeRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func TestAnalyzeWaitEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 1, CollectStats: true})

	resp, raw := postAnalyze(t, ts.URL, AnalyzeRequest{Source: racySrc, Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %s", resp.Status, raw)
	}
	var view sched.View
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, raw)
	}
	if view.State != sched.Done || view.RaceCnt != 1 {
		t.Fatalf("state=%s races=%d", view.State, view.RaceCnt)
	}
	if view.Summary == nil || view.Summary.Stats == nil {
		t.Fatal("missing summary / RunStats in response")
	}

	// Second identical submission must be cache-served.
	resp, raw = postAnalyze(t, ts.URL, AnalyzeRequest{Source: racySrc, Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	if view.Summary == nil || !view.Summary.Cached {
		t.Fatal("identical resubmission not cache-served")
	}
}

func TestAnalyzeAsyncAndPoll(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 1})

	resp, raw := postAnalyze(t, ts.URL, AnalyzeRequest{Source: cleanSrc})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %s, want 202", resp.Status)
	}
	var view sched.View
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	if view.ID == "" {
		t.Fatal("no job ID in 202 response")
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status %s", r.Status)
		}
		if err := json.Unmarshal(raw, &view); err != nil {
			t.Fatal(err)
		}
		if view.Finished {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if view.State != sched.Done || view.RaceCnt != 0 {
		t.Fatalf("state=%s races=%d err=%s", view.State, view.RaceCnt, view.Error)
	}
}

func TestUnknownJob404(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %s, want 404", resp.Status)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 1})

	for name, req := range map[string]AnalyzeRequest{
		"no files":   {Wait: true},
		"bad policy": {Source: racySrc, Config: ConfigRequest{Context: "psychic"}},
	} {
		resp, raw := postAnalyze(t, ts.URL, req)
		var body struct {
			Kind o2.Outcome `json:"kind"`
		}
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &body) != nil || body.Kind != o2.OutcomeParse {
			t.Errorf("%s: status %s, body %s; want 400 with kind parse", name, resp.Status, raw)
		}
	}

	resp, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %s, want 400", resp.Status)
	}

	// Parse errors in the source surface as a failed job, not a 400.
	resp, raw := postAnalyze(t, ts.URL, AnalyzeRequest{Source: "class {", Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("parse-error submission: status %s", resp.Status)
	}
	var view sched.View
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	if view.State != sched.Failed || view.ErrKind != o2.OutcomeParse {
		t.Fatalf("state=%s kind=%s", view.State, view.ErrKind)
	}
}

// TestAnalyzeBodyCap: a body one byte over the cap gets 413 with the
// usual error body, and the server goes on serving.
func TestAnalyzeBodyCap(t *testing.T) {
	defer func(n int64) { maxBodyBytes = n }(maxBodyBytes)
	maxBodyBytes = 1024
	ts, _ := newTestServer(t, sched.Options{Workers: 1})

	prefix, suffix := `{"source":"`, `"}`
	body := prefix + strings.Repeat("x", int(maxBodyBytes)+1-len(prefix)-len(suffix)) + suffix
	resp, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(raw, &eb) != nil ||
		eb.Kind != o2.OutcomeParse || !strings.Contains(eb.Error, "exceeds 1024 bytes") {
		t.Fatalf("over-cap body: status %s, body %s; want 413 with kind parse", resp.Status, raw)
	}

	resp, raw = postAnalyze(t, ts.URL, AnalyzeRequest{Source: racySrc, Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the 413: status %s, body %s", resp.Status, raw)
	}
}

func TestQueueFull429(t *testing.T) {
	// Big program + tiny queue: concurrent async submissions must
	// eventually see 429 with a Retry-After header.
	ts, _ := newTestServer(t, sched.Options{Workers: 1, QueueDepth: 1, CacheEntries: -1})

	big := genSource(200)
	saw429 := false
	for i := 0; i < 20 && !saw429; i++ {
		resp, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Source: big})
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			saw429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Fatalf("status %s", resp.Status)
		}
	}
	if !saw429 {
		t.Fatal("queue never returned 429")
	}
}

func TestHealthzStatsz(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 1})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}

	postAnalyze(t, ts.URL, AnalyzeRequest{Source: racySrc, Wait: true})
	r, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	var st sched.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("statsz JSON: %v\n%s", err, raw)
	}
	if st.Submitted == 0 || st.Completed == 0 {
		t.Fatalf("statsz counters empty: %+v", st)
	}
}

// TestConcurrentSubmissions drives many parallel waiting clients through
// the full HTTP stack.
func TestConcurrentSubmissions(t *testing.T) {
	ts, s := newTestServer(t, sched.Options{Workers: 2, QueueDepth: 64})

	sources := []string{racySrc, cleanSrc, genSource(3), genSource(4)}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				src := sources[(c+i)%len(sources)]
				resp, raw := postAnalyze(t, ts.URL, AnalyzeRequest{Source: src, Wait: true})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %s: %s", c, resp.Status, raw)
					return
				}
				var view sched.View
				if err := json.Unmarshal(raw, &view); err != nil {
					t.Error(err)
					return
				}
				if view.State != sched.Done {
					t.Errorf("client %d: state=%s err=%s", c, view.State, view.Error)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	st := s.Stats()
	if st.Completed != 40 {
		t.Fatalf("completed=%d, want 40", st.Completed)
	}
	if st.CacheHits == 0 {
		t.Fatal("repeated sources produced no cache hits")
	}
}

// TestGracefulShutdownDrains: jobs admitted before Shutdown complete even
// though admission stops.
func TestGracefulShutdownDrains(t *testing.T) {
	s := sched.New(sched.Options{Workers: 1, QueueDepth: 16, CacheEntries: -1})
	srv := New(s)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		resp, raw := postAnalyze(t, ts.URL, AnalyzeRequest{Source: genSource(20)})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %s", resp.Status)
		}
		var view sched.View
		if err := json.Unmarshal(raw, &view); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, view.ID)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		j, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State() != sched.Done {
			t.Fatalf("job %s state=%s after drain", id, j.State())
		}
	}

	resp, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Source: racySrc})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown status %s, want 503", resp.Status)
	}
}

func genSource(n int) string {
	var b strings.Builder
	b.WriteString("class S { field data; }\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "class W%d { field s; W%d(s) { this.s = s; } run() { sh = this.s; sh.data = this; } }\n", i, i)
	}
	b.WriteString("main {\n  s = new S();\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  t%d = new W%d(s);\n  t%d.start();\n", i, i, i)
	}
	b.WriteString("}\n")
	return b.String()
}

// TestMetricsExposition scrapes /metrics after real traffic and checks
// the Prometheus text format: content type, # TYPE lines for the
// scheduler mirror, the request-latency histogram, and the labeled
// jobs-by-state gauge.
func TestMetricsExposition(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 1, CollectStats: true})
	postAnalyze(t, ts.URL, AnalyzeRequest{Source: racySrc, Wait: true})
	postAnalyze(t, ts.URL, AnalyzeRequest{Source: racySrc, Wait: true}) // cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q is not the Prometheus text exposition", ct)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE o2_sched_submitted counter",
		"# TYPE o2_sched_cache_hits counter",
		"# TYPE o2_sched_queue_depth gauge",
		"# TYPE o2_server_request_seconds histogram",
		`o2_server_request_seconds_bucket{le="+Inf"}`,
		"o2_server_request_seconds_count",
		"# TYPE o2_sched_jobs gauge",
		`o2_sched_jobs{state="done"} 2`,
		"o2_server_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
	// The cache hit mirrored from the scheduler must be non-zero.
	if strings.Contains(body, "\no2_sched_cache_hits 0\n") {
		t.Error("cache_hits not mirrored from scheduler stats")
	}
}

// TestStatszExtended checks the uptime / build / obs additions while the
// flat scheduler counters stay where existing clients expect them.
func TestStatszExtended(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 1})
	postAnalyze(t, ts.URL, AnalyzeRequest{Source: racySrc, Wait: true})

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("statsz JSON: %v\n%s", err, raw)
	}
	for _, key := range []string{"submitted", "completed", "uptime_ns", "build", "obs"} {
		if _, ok := body[key]; !ok {
			t.Errorf("statsz missing %q:\n%s", key, raw)
		}
	}
	if up, _ := body["uptime_ns"].(float64); up <= 0 {
		t.Errorf("uptime_ns = %v, want > 0", body["uptime_ns"])
	}
	if b, _ := body["build"].(map[string]any); b["go_version"] == "" {
		t.Errorf("build info missing go_version: %v", body["build"])
	}
}

// TestJobTrace fetches ?trace=1 for a finished job and validates the
// Chrome trace_event shape end to end over HTTP.
func TestJobTrace(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 1, CollectStats: true})
	resp, raw := postAnalyze(t, ts.URL, AnalyzeRequest{Source: racySrc, Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var view sched.View
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}

	r, err := http.Get(ts.URL + "/jobs/" + view.ID + "?trace=1")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("trace: %s: %s", r.Status, raw)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, raw)
	}
	var b, e int
	for _, ev := range events {
		switch ev["ph"] {
		case "B":
			b++
		case "E":
			e++
		}
	}
	if b == 0 || b != e {
		t.Fatalf("trace has %d B and %d E events", b, e)
	}
}

// TestJobTraceUnavailable: a server without stats collection has no span
// data to trace, and says so rather than emitting an empty file.
func TestJobTraceUnavailable(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 1})
	_, raw := postAnalyze(t, ts.URL, AnalyzeRequest{Source: racySrc, Wait: true})
	var view sched.View
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	r, err := http.Get(ts.URL + "/jobs/" + view.ID + "?trace=1")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("trace without stats: %s, want 404", r.Status)
	}
}

// TestRequestIDPropagation: a caller-provided X-Request-ID is echoed on
// the response and lands on the job view; absent one, the server mints
// an ID.
func TestRequestIDPropagation(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 1})

	body, _ := json.Marshal(AnalyzeRequest{Source: racySrc, Wait: true})
	req, err := http.NewRequest("POST", ts.URL+"/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "test-req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "test-req-42" {
		t.Errorf("response X-Request-ID = %q, want the caller's", got)
	}
	var view sched.View
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	if view.RequestID != "test-req-42" {
		t.Errorf("job view request_id = %q, want test-req-42", view.RequestID)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("server did not mint a request ID")
	}
}

// TestWitnessInJobResult: job summaries carry the full machine-readable
// witness per race.
func TestWitnessInJobResult(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 1})
	_, raw := postAnalyze(t, ts.URL, AnalyzeRequest{Source: racySrc, Wait: true})
	var view sched.View
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	if view.RaceCnt != 1 || view.Summary == nil {
		t.Fatalf("races=%d summary=%v", view.RaceCnt, view.Summary)
	}
	w := view.Summary.Races[0].Witness
	if w == nil {
		t.Fatal("race has no witness")
	}
	if w.Schema == 0 || w.Locks.Verdict == "" || w.Ordering.Verdict == "" {
		t.Fatalf("witness incomplete: %+v", w)
	}
	if len(w.A.Origin.SpawnChain) == 0 {
		t.Fatal("witness has no spawn chain")
	}
}

func TestBatchStreaming(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 2})

	// Three manifest lines: a racy program, a corrupt one, a clean one.
	// The response must carry one record per line, in manifest order,
	// with the corrupt program isolated as an error record, plus the
	// terminal summary line.
	manifest := `{"name":"racy.mini","source":` + string(mustJSON(t, racySrc)) + `}
{"name":"broken.mini","source":"class { nope"}
{"name":"clean.mini","source":` + string(mustJSON(t, cleanSrc)) + `}
`
	resp, err := http.Post(ts.URL+"/batch?jobs=2", "application/x-ndjson", strings.NewReader(manifest))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d NDJSON lines, want 3 records + summary:\n%s", len(lines), body)
	}

	type rec struct {
		Schema    int    `json:"schema"`
		Index     int    `json:"index"`
		Program   string `json:"program"`
		ExitClass string `json:"exit_class"`
		RaceCount int    `json:"race_count"`
		Error     string `json:"error"`
		Summary   bool   `json:"summary"`
		Programs  int    `json:"programs"`
		Failed    int    `json:"failed"`
	}
	var recs [4]rec
	for i, l := range lines {
		if err := json.Unmarshal([]byte(l), &recs[i]); err != nil {
			t.Fatalf("line %d: %v\n%s", i, err, l)
		}
		if recs[i].Schema != 1 {
			t.Fatalf("line %d: schema = %d", i, recs[i].Schema)
		}
	}
	wants := []struct {
		program, class string
		races          int
	}{
		{"racy.mini", "races", 1},
		{"broken.mini", "parse", 0},
		{"clean.mini", "ok", 0},
	}
	for i, w := range wants {
		r := recs[i]
		if r.Index != i || r.Program != w.program || r.ExitClass != w.class || r.RaceCount != w.races {
			t.Fatalf("record %d = %+v, want %+v", i, r, w)
		}
	}
	if recs[1].Error == "" {
		t.Fatal("parse record carries no error message")
	}
	sum := recs[3]
	if !sum.Summary || sum.Programs != 3 || sum.Failed != 1 {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestBatchHugeJobs: a jobs value far beyond the host's CPUs runs on
// GOMAXPROCS workers rather than sizing the reorder window by it, and
// the same server then completes a second /batch.
func TestBatchHugeJobs(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 1})
	manifest := `{"name":"racy.mini","source":` + string(mustJSON(t, racySrc)) + "}\n"
	for _, query := range []string{"?jobs=1099511627776", ""} {
		resp, err := http.Post(ts.URL+"/batch"+query, "application/x-ndjson", strings.NewReader(manifest))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status = %d", query, resp.StatusCode)
		}
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		if len(lines) != 2 {
			t.Fatalf("%q: got %d NDJSON lines, want record + summary:\n%s", query, len(lines), body)
		}
		var rec, sum struct {
			ExitClass string `json:"exit_class"`
			Summary   bool   `json:"summary"`
			Programs  int    `json:"programs"`
			Error     string `json:"error"`
		}
		if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(lines[1]), &sum); err != nil {
			t.Fatal(err)
		}
		if rec.ExitClass != "races" || !sum.Summary || sum.Programs != 1 || sum.Error != "" {
			t.Fatalf("%q: record %+v, summary %+v", query, rec, sum)
		}
	}
}

func TestBatchRejectsPathEntries(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 1})
	resp, err := http.Post(ts.URL+"/batch", "application/x-ndjson",
		strings.NewReader(`{"path":"/etc/passwd"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	last := lines[len(lines)-1]
	var sum struct {
		Summary bool   `json:"summary"`
		Error   string `json:"error"`
	}
	if err := json.Unmarshal([]byte(last), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Summary || !strings.Contains(sum.Error, "not allowed") {
		t.Fatalf("summary = %+v, want a path-rejection error", sum)
	}
}

func TestBatchBadConfig(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 1})
	resp, err := http.Post(ts.URL+"/batch?context=bogus", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJobEventsStream: GET /jobs/{id}/events must deliver at least two
// well-formed progress heartbeats for an in-flight job before the
// terminal job-view record, each carrying the request ID.
func TestJobEventsStream(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 1, CacheEntries: -1})

	resp, raw := postAnalyze(t, ts.URL, AnalyzeRequest{Source: genSource(250)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %s: %s", resp.Status, raw)
	}
	var view sched.View
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest("GET", ts.URL+"/jobs/"+view.ID+"/events?interval_ms=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "evt-req-7")
	er, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer er.Body.Close()
	if er.StatusCode != http.StatusOK {
		t.Fatalf("events status %s", er.Status)
	}
	if ct := er.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}

	body, err := io.ReadAll(er.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 3 {
		t.Fatalf("got %d NDJSON lines, want >=2 heartbeats + terminal view:\n%s", len(lines), body)
	}

	type event struct {
		Schema     int     `json:"schema"`
		IsProgress bool    `json:"progress"`
		Phase      string  `json:"phase"`
		Percent    float64 `json:"percent"`
		RequestID  string  `json:"request_id"`
		State      string  `json:"state"`
	}
	heartbeats := 0
	for i, l := range lines[:len(lines)-1] {
		var ev event
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatalf("line %d: %v\n%s", i, err, l)
		}
		if !ev.IsProgress {
			t.Fatalf("line %d is not a progress heartbeat:\n%s", i, l)
		}
		if ev.Schema != 1 {
			t.Fatalf("heartbeat schema = %d", ev.Schema)
		}
		if ev.Percent < 0 || ev.Percent > 100 {
			t.Fatalf("heartbeat percent = %v", ev.Percent)
		}
		if ev.RequestID != "evt-req-7" {
			t.Fatalf("heartbeat request_id = %q", ev.RequestID)
		}
		heartbeats++
	}
	if heartbeats < 2 {
		t.Fatalf("only %d heartbeats before the terminal record", heartbeats)
	}
	var term event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &term); err != nil {
		t.Fatal(err)
	}
	if term.IsProgress || term.State != string(sched.Done) {
		t.Fatalf("terminal line = %s", lines[len(lines)-1])
	}
}

func TestJobEventsUnknownJob(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestBatchStreamRequestID: every record of a streamed batch (and the
// terminal summary) must carry the originating request's ID.
func TestBatchStreamRequestID(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 1})
	manifest := `{"name":"racy.mini","source":` + string(mustJSON(t, racySrc)) + `}` + "\n"
	req, err := http.NewRequest("POST", ts.URL+"/batch", strings.NewReader(manifest))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("X-Request-ID", "batch-req-9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines:\n%s", len(lines), body)
	}
	for i, l := range lines {
		var rec struct {
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.RequestID != "batch-req-9" {
			t.Fatalf("line %d request_id = %q, want batch-req-9\n%s", i, rec.RequestID, l)
		}
	}
}

// TestPprofGated: the pprof handlers exist only behind WithPprof.
func TestPprofGated(t *testing.T) {
	ts, _ := newTestServer(t, sched.Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ungated pprof status = %d, want 404", resp.StatusCode)
	}

	s := sched.New(sched.Options{Workers: 1})
	pts := httptest.NewServer(New(s, WithPprof()))
	t.Cleanup(func() {
		pts.Close()
		s.Shutdown(context.Background())
	})
	resp, err = http.Get(pts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gated pprof status = %d, want 200", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("profile")) {
		t.Fatalf("pprof index body unexpected:\n%.200s", body)
	}
}
