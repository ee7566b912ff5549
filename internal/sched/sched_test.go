package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"o2"
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

// genSource builds a program with n distinct racy thread classes — large
// enough that a cold analysis dwarfs a cache lookup.
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

func req(src string) Request {
	return Request{Files: map[string]string{"in.mini": src}, Config: o2.DefaultConfig()}
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
}

func TestSubmitAndResult(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(req(racySrc))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != Done {
		t.Fatalf("state = %s, err = %v", j.State(), j.Err())
	}
	if got := len(j.Summary().Races); got != 1 {
		t.Fatalf("want 1 race, got %d", got)
	}
	if j.Summary().Cached {
		t.Fatal("first run must not be cache-served")
	}

	clean, err := s.Submit(req(cleanSrc))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, clean)
	if got := len(clean.Summary().Races); got != 0 {
		t.Fatalf("clean program reported %d races", got)
	}
}

func TestParseErrorClassified(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(req("class { this is not minilang"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != Failed {
		t.Fatalf("state = %s", j.State())
	}
	if v := j.View(); !errors.Is(j.Err(), o2.ErrCompile) || v.ErrKind != o2.OutcomeParse {
		t.Fatalf("want ErrCompile/parse, got %v / %s", j.Err(), v.ErrKind)
	}
}

func TestCacheHitMissEviction(t *testing.T) {
	s := New(Options{Workers: 1, CacheEntries: 2})
	defer s.Shutdown(context.Background())

	run := func(src string) *Job {
		j, err := s.Submit(req(src))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		return j
	}

	a1 := run(racySrc)
	if a1.Summary().Cached {
		t.Fatal("cold run flagged cached")
	}
	a2 := run(racySrc)
	if !a2.Summary().Cached {
		t.Fatal("identical resubmission missed the cache")
	}
	if len(a2.Summary().Races) != len(a1.Summary().Races) {
		t.Fatal("cached summary differs from cold summary")
	}

	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}

	// Fill the 2-entry cache past capacity: racy, clean, gen → racy evicted.
	run(cleanSrc)
	run(genSource(3))
	if st := s.Stats(); st.CacheEvictions != 1 || st.CacheEntries != 2 {
		t.Fatalf("evictions/entries = %d/%d, want 1/2", st.CacheEvictions, st.CacheEntries)
	}
	if a3 := run(racySrc); a3.Summary().Cached {
		t.Fatal("evicted entry still served from cache")
	}
}

// TestCacheKeyConfigCollision: identical sources with different
// report-affecting configs must NOT share a cache entry, while
// report-neutral knobs (Workers, stats) must.
func TestCacheKeyConfigCollision(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())

	run := func(r Request) *Job {
		j, err := s.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		return j
	}

	base := req(racySrc)
	run(base)

	insensitive := req(racySrc)
	insensitive.Config.Policy = o2.Insensitive
	if j := run(insensitive); j.Summary().Cached {
		t.Fatal("different policy hit the origin-policy cache entry")
	}

	android := req(racySrc)
	android.Config.Android = true
	if j := run(android); j.Summary().Cached {
		t.Fatal("Android mode hit the non-Android cache entry")
	}

	workers := req(racySrc)
	workers.Config.Workers = 4
	if j := run(workers); !j.Summary().Cached {
		t.Fatal("worker count (report-neutral) caused a cache miss")
	}

	// Different filename, same content: a distinct program (positions
	// differ in the report), so it must miss.
	renamed := Request{Files: map[string]string{"other.mini": racySrc}, Config: o2.DefaultConfig()}
	if j := run(renamed); j.Summary().Cached {
		t.Fatal("renamed file hit the cache despite differing positions")
	}
}

// TestCacheWarmHitSpeedup asserts the headline cache property: a warm hit
// is at least 100× faster than the cold analysis it replaces.
func TestCacheWarmHitSpeedup(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())

	big := genSource(640)
	r := Request{Files: map[string]string{"big.mini": big}, Config: o2.DefaultConfig()}

	t0 := time.Now()
	j1, err := s.Submit(r)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	cold := time.Since(t0)
	if j1.State() != Done {
		t.Fatalf("cold run failed: %v", j1.Err())
	}

	// Best-of-5 warm submissions, to keep scheduler jitter out of the
	// ratio.
	warm := time.Hour
	for i := 0; i < 5; i++ {
		t1 := time.Now()
		j2, err := s.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j2)
		if d := time.Since(t1); d < warm {
			warm = d
		}
		if !j2.Summary().Cached {
			t.Fatal("resubmission missed the cache")
		}
	}
	if cold < 100*warm {
		t.Fatalf("warm hit not ≥100× faster: cold=%v warm=%v (%.0fx)", cold, warm, float64(cold)/float64(warm))
	}
	t.Logf("cold=%v warm=%v speedup=%.0fx", cold, warm, float64(cold)/float64(warm))
}

func TestBackpressure(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1, CacheEntries: -1})
	defer s.Shutdown(context.Background())

	// Occupy the single worker with a long job, then fill the queue.
	long := Request{Files: map[string]string{"big.mini": genSource(320)}, Config: o2.DefaultConfig()}
	j1, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	// One of the next submissions lands in the queue; once both the worker
	// and the queue slot are taken, Submit must reject with ErrQueueFull.
	var sawFull bool
	for i := 0; i < 10 && !sawFull; i++ {
		_, err := s.Submit(req(racySrc))
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("queue never exerted backpressure")
	}
	if s.Stats().Rejected == 0 {
		t.Fatal("rejected counter not bumped")
	}
	waitDone(t, j1)
}

func TestCancelQueuedJob(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4, CacheEntries: -1})
	defer s.Shutdown(context.Background())

	blocker, err := s.Submit(Request{Files: map[string]string{"big.mini": genSource(320)}, Config: o2.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(req(racySrc))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(queued.ID) {
		t.Fatal("Cancel(queued) = false")
	}
	waitDone(t, queued)
	if v := queued.View(); v.State != Canceled || v.ErrKind != o2.OutcomeCanceled {
		t.Fatalf("state=%s kind=%s", v.State, v.ErrKind)
	}
	waitDone(t, blocker)
	if blocker.State() != Done {
		t.Fatalf("blocker state=%s err=%v", blocker.State(), blocker.Err())
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := New(Options{Workers: 1, CacheEntries: -1})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(Request{Files: map[string]string{"big.mini": genSource(320)}, Config: o2.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for it to leave the queue.
	for j.State() == Queued {
		time.Sleep(time.Millisecond)
	}
	if !s.Cancel(j.ID) {
		t.Fatal("Cancel(running) = false")
	}
	waitDone(t, j)
	if j.State() != Canceled {
		t.Fatalf("state=%s err=%v", j.State(), j.Err())
	}
	if !errors.Is(j.Err(), o2.ErrCanceled) {
		t.Fatalf("err=%v, want ErrCanceled", j.Err())
	}
}

func TestJobTimeoutIsBudget(t *testing.T) {
	s := New(Options{Workers: 1, CacheEntries: -1})
	defer s.Shutdown(context.Background())

	r := Request{Files: map[string]string{"big.mini": genSource(320)}, Config: o2.DefaultConfig(), Timeout: time.Millisecond}
	j, err := s.Submit(r)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if v := j.View(); v.State != Failed || v.ErrKind != o2.OutcomeBudget {
		t.Fatalf("state=%s kind=%s err=%s", v.State, v.ErrKind, v.Error)
	}
}

func TestShutdownDrains(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 16, CacheEntries: -1})
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(req(racySrc))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s not finished after drain", j.ID)
		}
		if j.State() != Done {
			t.Fatalf("job %s state=%s err=%v", j.ID, j.State(), j.Err())
		}
	}
	if _, err := s.Submit(req(racySrc)); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Submit after shutdown: %v, want ErrShutdown", err)
	}
}

func TestShutdownDeadlineCancels(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 16, CacheEntries: -1})
	j, err := s.Submit(Request{Files: map[string]string{"big.mini": genSource(320)}, Config: o2.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for j.State() == Queued {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	// The hard stop canceled the running job; it must still have drained.
	select {
	case <-j.Done():
	default:
		t.Fatal("running job not finished after hard shutdown")
	}
	if j.State() != Canceled {
		t.Fatalf("state=%s err=%v", j.State(), j.Err())
	}
}

func TestWaitAndGet(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(req(racySrc))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Wait(context.Background(), j.ID)
	if err != nil || got != j {
		t.Fatalf("Wait = %v, %v", got, err)
	}
	if _, err := s.Get("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Get(unknown) = %v", err)
	}
	if _, err := s.Wait(context.Background(), "nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Wait(unknown) = %v", err)
	}
}

// TestClassify checks the kind a finished job's view reports for each
// way its run can end.
func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want o2.Outcome
	}{
		{nil, ""},
		{fmt.Errorf("%w: boom", o2.ErrCompile), o2.OutcomeParse},
		{o2.ErrBudget, o2.OutcomeBudget},
		{o2.ErrCanceled, o2.OutcomeCanceled},
		{context.Canceled, o2.OutcomeCanceled},
		{errors.New("disk on fire"), o2.OutcomeInternal},
	} {
		j := &Job{ID: "job-test", state: Running, created: time.Now(), done: make(chan struct{})}
		j.finish(Failed, nil, tc.err)
		if got := j.View().ErrKind; got != tc.want {
			t.Errorf("View().ErrKind for %v = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestSchedulerStress hammers a small scheduler from many goroutines with
// a mix of cached, uncached, canceled and rejected submissions. Run under
// -race in CI.
func TestSchedulerStress(t *testing.T) {
	s := New(Options{Workers: 4, QueueDepth: 8, CacheEntries: 4})
	sources := []string{racySrc, cleanSrc, genSource(2), genSource(3), genSource(4), genSource(5)}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				j, err := s.Submit(req(sources[(g+i)%len(sources)]))
				if errors.Is(err, ErrQueueFull) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if i%7 == 0 {
					s.Cancel(j.ID)
				}
				if i%3 == 0 {
					waitDone(t, j)
				}
				s.Stats()
			}
		}(g)
	}
	wg.Wait()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Completed == 0 {
		t.Fatal("stress run completed nothing")
	}
	t.Logf("stress: %+v", st)
}

// TestSubmitSources: the files of a request compile into one program,
// and its label defaults to the first file name in sorted order.
func TestSubmitSources(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(Request{
		Files: map[string]string{
			"z.mini": strings.Replace(racySrc, "class S { field data; }", "", 1),
			"a.mini": "class S { field data; }\n",
		},
		Config: o2.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.Label != "a.mini" {
		t.Fatalf("label = %q, want the first file name", j.Label)
	}
	waitDone(t, j)
	if j.State() != Done || len(j.Summary().Races) != 1 {
		t.Fatalf("state=%s races=%d err=%v", j.State(), len(j.Summary().Races), j.Err())
	}
}

// TestCacheKeyStable: the key is stable for identical requests,
// distinct across sources, and pinned to its hex bytes for one fixed
// two-file request, so a change to how the key is built shows.
func TestCacheKeyStable(t *testing.T) {
	if cacheKey(req(racySrc)) != cacheKey(req(racySrc)) {
		t.Error("identical requests must share a cache key")
	}
	if cacheKey(req(racySrc)) == cacheKey(req(cleanSrc)) {
		t.Error("different sources must not share a cache key")
	}
	r := Request{Files: map[string]string{"z.mini": cleanSrc, "a.mini": racySrc}, Config: o2.DefaultConfig()}
	r.Config.Android = true
	const want = "e23c20e36a08f3c9f12309c46331b45e1556f019359793debc651b03e67eb508"
	if got := cacheKey(r); got != want {
		t.Errorf("cacheKey = %s, want %s", got, want)
	}
}

// withMaxFinished lowers the finished-job cap for one test.
func withMaxFinished(t *testing.T, n int) {
	old := maxFinished
	maxFinished = n
	t.Cleanup(func() { maxFinished = old })
}

func jobIDs(views []View) []string {
	ids := make([]string, len(views))
	for i, v := range views {
		ids[i] = v.ID
	}
	return ids
}

// TestJobTableBounded: past maxFinished finished jobs the scheduler
// forgets the job that finished first, so Get, Jobs and StateCounts see
// at most the cap.
func TestJobTableBounded(t *testing.T) {
	const keep, extra = 4, 6
	withMaxFinished(t, keep)
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())

	var ids []string
	for i := 0; i < keep+extra; i++ {
		j, err := s.Submit(req(racySrc)) // the first runs, the rest hit the cache
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID)
		if n := len(s.Jobs()); n > keep {
			t.Fatalf("after %d jobs Jobs() lists %d, want at most %d", i+1, n, keep)
		}
	}
	for _, id := range ids[:extra] {
		if _, err := s.Get(id); !errors.Is(err, ErrUnknownJob) {
			t.Errorf("Get(%s) = %v, want ErrUnknownJob after eviction", id, err)
		}
	}
	if got := jobIDs(s.Jobs()); !slices.Equal(got, ids[extra:]) {
		t.Errorf("Jobs() = %v, want the last %d: %v", got, keep, ids[extra:])
	}
	counts := s.StateCounts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if counts[Done] != keep || total != keep {
		t.Errorf("StateCounts = %v, want %d done and nothing else", counts, keep)
	}
}

// TestJobTableKeepsLiveJobs: eviction takes only finished jobs, in the
// order they finished; a running and a queued job stay however many
// jobs finish after them, and a caller holding an evicted *Job can
// still read it.
func TestJobTableKeepsLiveJobs(t *testing.T) {
	withMaxFinished(t, 2)
	s := New(Options{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())
	submit := func(r Request) *Job {
		t.Helper()
		j, err := s.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	first := submit(req(racySrc))
	waitDone(t, first) // racySrc is cached from here on
	running := submit(Request{Files: map[string]string{"big.mini": genSource(320)}, Config: o2.DefaultConfig()})
	for running.State() == Queued {
		time.Sleep(time.Millisecond)
	}
	queued := submit(req(cleanSrc))
	var hits []*Job
	for i := 0; i < 5; i++ {
		j := submit(req(racySrc))
		if j.State() != Done {
			t.Fatalf("cache hit %d: state %s", i, j.State())
		}
		hits = append(hits, j)
	}
	if running.State() != Running || queued.State() != Queued {
		t.Fatalf("states %s/%s, want running/queued: the blocker finished too soon", running.State(), queued.State())
	}
	want := []string{running.ID, queued.ID, hits[3].ID, hits[4].ID}
	if got := jobIDs(s.Jobs()); !slices.Equal(got, want) {
		t.Fatalf("Jobs() = %v, want %v", got, want)
	}
	if c := s.StateCounts(); c[Running] != 1 || c[Queued] != 1 || c[Done] != 2 {
		t.Fatalf("StateCounts = %v, want 1 running, 1 queued, 2 done", c)
	}
	if _, err := s.Get(first.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Get(first) = %v, want ErrUnknownJob", err)
	}
	if v := first.View(); v.State != Done || v.RaceCnt != 1 {
		t.Fatalf("evicted job's view = %+v", v)
	}

	// Cancel the queued job, then the running one: they finish last, so
	// the cache hits go first, and then the queued job although it was
	// submitted after the running one.
	s.Cancel(queued.ID)
	waitDone(t, queued)
	s.Cancel(running.ID)
	waitDone(t, running)
	if got := jobIDs(s.Jobs()); !slices.Equal(got, []string{running.ID, queued.ID}) {
		t.Fatalf("after both canceled Jobs() = %v", got)
	}
	waitDone(t, submit(req(racySrc)))
	if _, err := s.Get(queued.ID); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Get(queued) = %v, want ErrUnknownJob: it finished first", err)
	}
	if _, err := s.Get(running.ID); err != nil {
		t.Errorf("Get(running) = %v: it finished after the queued job", err)
	}
}

// TestSubmitShutdownRace races submissions against Shutdown (run under
// -race in CI): every Submit either admits a job that then drains to a
// terminal state, or fails with ErrQueueFull or, once Shutdown started,
// ErrShutdown. A send on the closed queue would panic.
func TestSubmitShutdownRace(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 2, CacheEntries: -1})
	const submitters = 4
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		admitted []*Job
	)
	running := make(chan struct{}, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				j, err := s.Submit(req(racySrc))
				if i == 0 {
					running <- struct{}{}
				}
				switch {
				case err == nil:
					mu.Lock()
					admitted = append(admitted, j)
					mu.Unlock()
				case errors.Is(err, ErrShutdown):
					return
				case !errors.Is(err, ErrQueueFull):
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := 0; g < submitters; g++ {
		<-running
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for _, j := range admitted {
		select {
		case <-j.Done():
		default:
			t.Fatalf("admitted job %s not finished after drain", j.ID)
		}
	}
}
