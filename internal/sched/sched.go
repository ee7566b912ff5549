// Package sched is the batch-analysis job scheduler: a bounded worker
// pool that runs full O2 pipelines as jobs, with per-job context
// deadlines and cancellation, an admission queue with backpressure, a
// graceful shutdown that drains in-flight jobs, a job table that keeps
// every live job and the last maxFinished finished ones, and an LRU
// result cache keyed by (source hash, config fingerprint) so repeated
// submissions of unchanged programs complete in microseconds. It is the
// engine behind `o2 serve` — the RacerD-style deployment shape of a
// static race detector analyzing many compilation units concurrently.
package sched

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"o2"
	"o2/internal/obs"
	"o2/internal/race"
)

// Sentinel errors of the scheduler.
var (
	// ErrQueueFull is returned by Submit when the admission queue is at
	// capacity — the backpressure signal. Callers should retry later
	// (HTTP clients see 429).
	ErrQueueFull = errors.New("sched: admission queue full")
	// ErrShutdown is returned by Submit after Shutdown started.
	ErrShutdown = errors.New("sched: scheduler is shut down")
	// ErrUnknownJob is returned for job IDs the scheduler has never seen
	// or no longer keeps (see maxFinished).
	ErrUnknownJob = errors.New("sched: unknown job")
)

// State is a job's lifecycle state.
type State string

const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"   // analysis completed (races or not)
	Failed   State = "failed" // parse error, budget, internal error
	Canceled State = "canceled"
)

// Options configures a Scheduler.
type Options struct {
	// Workers is the worker-pool size (number of concurrently running
	// jobs). 0 defaults to GOMAXPROCS.
	Workers int
	// QueueDepth is the admission-queue capacity; submissions beyond it
	// fail with ErrQueueFull. 0 defaults to 64.
	QueueDepth int
	// CacheEntries bounds the LRU result cache (0 defaults to 128,
	// negative disables caching).
	CacheEntries int
	// DefaultTimeout is the per-job deadline applied when the request
	// carries none (0 = no deadline).
	DefaultTimeout time.Duration
	// CollectStats gives every job its own obs.Registry and attaches the
	// frozen RunStats report to the job summary.
	CollectStats bool
	// Log receives structured job-lifecycle events (submit, cache hit,
	// start, finish) with job/request IDs. Nil disables logging — every
	// log site is a single nil check, mirroring the obs layer's design.
	Log *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 128
	}
	return o
}

// Request is one analysis submission: a set of minilang sources plus the
// analysis configuration. The Config's Obs field is ignored (jobs get
// their own registry when Options.CollectStats is set).
type Request struct {
	// Files maps filename to minilang source; all files compile into one
	// program.
	Files map[string]string
	// Config is the analysis configuration.
	Config o2.Config
	// Timeout overrides Options.DefaultTimeout for this job (0 = use the
	// scheduler default).
	Timeout time.Duration
	// Label is a caller-chosen display name (defaults to the first file).
	Label string
	// RequestID is the originating HTTP request's ID (empty for direct
	// submissions). It is propagated into the job's context (see
	// RequestIDFrom), carried on the Job, echoed in views and attached to
	// every log event, so a trace can be followed end to end.
	RequestID string
}

// requestIDKey is the context key carrying the originating request ID.
type requestIDKey struct{}

// WithRequestID returns a context carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom extracts the request ID threaded through a job's context
// ("" when absent) — available to any pipeline stage run under the job.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// RaceInfo is one reported race, rendered for transport, with the full
// machine-readable witness (spawn chains, lockset derivation, HB-absence
// evidence) so API clients can triage without re-running the analysis.
type RaceInfo struct {
	o2.RaceRecord
	Witness *race.Witness `json:"witness,omitempty"`
}

// Summary is a job's result: the race report projected onto plain data
// (the full o2.Result holds the whole points-to state and is not retained
// by the scheduler), phase timings, and the observability report.
type Summary struct {
	Races    []RaceInfo `json:"races"`
	TimedOut bool       `json:"timed_out,omitempty"` // pair budget tripped: races are a lower bound
	o2.PhaseTimes
	Stats *obs.RunStats `json:"stats,omitempty"`
	// Cached reports that this summary was served from the result cache;
	// the timings are those of the original (cold) run.
	Cached bool `json:"cached,omitempty"`
}

func summarize(res *o2.Result) *Summary {
	recs := res.RaceRecords()
	witnesses := race.Witnesses(res.Analysis, res.Graph, res.Report)
	s := &Summary{
		Races:      make([]RaceInfo, len(recs)),
		TimedOut:   res.Report.TimedOut,
		PhaseTimes: res.PhaseTimes(),
		Stats:      res.RunStats,
	}
	for i, rec := range recs {
		s.Races[i] = RaceInfo{RaceRecord: rec, Witness: witnesses[i]}
	}
	return s
}

// withCached returns a shallow copy flagged as cache-served.
func (s *Summary) withCached() *Summary {
	cp := *s
	cp.Cached = true
	return &cp
}

// Job is one scheduled analysis. All accessors are safe for concurrent
// use; Done() closes when the job reaches a terminal state.
type Job struct {
	ID    string
	Label string
	// RequestID is the originating HTTP request ID ("" for direct
	// submissions), echoed in views so API clients can correlate a job
	// with the request that created it.
	RequestID string

	seq      int64 // submission order
	mu       sync.Mutex
	state    State
	summary  *Summary
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc
	done     chan struct{}
	progress *obs.Progress
}

// Progress returns the job's live progress tracker (nil until the job
// starts running; obs.Progress is nil-safe, so callers may snapshot the
// result unconditionally).
func (j *Job) Progress() *obs.Progress {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.progress
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Summary returns the result summary (nil until Done).
func (j *Job) Summary() *Summary {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.summary
}

// Err returns the terminal error (nil while running or on success).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wall returns queued→finished wall time (running time if not finished).
func (j *Job) Wall() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished.IsZero() {
		return time.Since(j.created)
	}
	return j.finished.Sub(j.created)
}

// finish moves the job to a terminal state and reports whether it did;
// a job already in one keeps it. The caller then closes done (see
// Scheduler.finish).
func (j *Job) finish(state State, sum *Summary, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == Done || j.state == Failed || j.state == Canceled {
		return false
	}
	j.state = state
	j.summary = sum
	j.err = err
	j.finished = time.Now()
	return true
}

// View is a transportable snapshot of a job.
type View struct {
	ID        string     `json:"id"`
	Label     string     `json:"label,omitempty"`
	RequestID string     `json:"request_id,omitempty"`
	State     State      `json:"state"`
	Error     string     `json:"error,omitempty"`
	ErrKind   o2.Outcome `json:"error_kind,omitempty"`
	WallNS    int64      `json:"wall_ns"`
	Summary   *Summary   `json:"summary,omitempty"`
	RaceCnt   int        `json:"race_count"`
	Finished  bool       `json:"finished"`
}

// View snapshots the job for transport.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{ID: j.ID, Label: j.Label, RequestID: j.RequestID, State: j.state, Summary: j.summary}
	if j.err != nil {
		v.Error = j.err.Error()
		v.ErrKind = o2.Classify(j.err, 0)
	}
	if j.summary != nil {
		v.RaceCnt = len(j.summary.Races)
	}
	if j.finished.IsZero() {
		v.WallNS = int64(time.Since(j.created))
	} else {
		v.WallNS = int64(j.finished.Sub(j.created))
		v.Finished = true
	}
	return v
}

// Stats is a point-in-time snapshot of scheduler health, served by
// GET /statsz.
type Stats struct {
	Workers    int   `json:"workers"`
	QueueDepth int   `json:"queue_depth"`
	QueueLen   int   `json:"queue_len"`
	InFlight   int64 `json:"in_flight"`

	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Rejected  int64 `json:"rejected"`

	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheEntries   int   `json:"cache_entries"`
}

// maxFinished bounds the finished jobs a Scheduler keeps; queued and
// running jobs are always kept. Past it the job that finished first is
// forgotten: Get reports it unknown, while a caller that holds the *Job
// can still read it. Tests lower it.
var maxFinished = 1024

// task is a queued job with its request and the cache key computed at
// admission ("" when caching is off).
type task struct {
	job *Job
	req Request
	key string
}

// Scheduler is the bounded-worker batch analysis service.
type Scheduler struct {
	opts Options
	// queue is the bounded admission queue. Sends (Submit) and its close
	// (Shutdown) both happen under mu, so a send never meets a closed
	// channel.
	queue chan task

	mu       sync.Mutex
	jobs     map[string]*Job // every live job and the finished ones kept
	finished []*Job          // the finished jobs kept, in finishing order
	closed   bool
	seq      int64

	cache *lru
	wg    sync.WaitGroup

	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	rejected  atomic.Int64
	inFlight  atomic.Int64
}

// New creates a scheduler and starts its worker pool.
func New(opts Options) *Scheduler {
	opts = opts.withDefaults()
	s := &Scheduler{
		opts:  opts,
		queue: make(chan task, opts.QueueDepth),
		jobs:  map[string]*Job{},
	}
	if opts.CacheEntries > 0 {
		s.cache = newLRU(opts.CacheEntries)
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// cacheKey derives the result-cache key: the SHA-256 of the sorted
// (filename, source) pairs combined with the config fingerprint. Two
// requests collide only if both the full source hash and every
// report-affecting config field agree. The cache lives in process
// memory, so only this binary's results can ever be looked up. Submit
// computes it once and the queued task carries it to runJob.
func cacheKey(req Request) string {
	h := sha256.New()
	names := make([]string, 0, len(req.Files))
	for n := range req.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%d:%s:%d:", len(n), n, len(req.Files[n]))
		h.Write([]byte(req.Files[n]))
	}
	h.Write([]byte(req.Config.Fingerprint()))
	return hex.EncodeToString(h.Sum(nil))
}

// Submit admits a job. It never blocks: a full queue returns ErrQueueFull
// (backpressure), a shut-down scheduler returns ErrShutdown. A result-
// cache hit completes the job immediately — without entering the queue —
// in microseconds.
func (s *Scheduler) Submit(req Request) (*Job, error) {
	if len(req.Files) == 0 {
		return nil, fmt.Errorf("%w: no files", o2.ErrCompile)
	}
	if req.Label == "" {
		names := make([]string, 0, len(req.Files))
		for n := range req.Files {
			names = append(names, n)
		}
		sort.Strings(names)
		req.Label = names[0]
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, ErrShutdown
	}
	s.seq++
	j := &Job{
		ID:        fmt.Sprintf("job-%06d", s.seq),
		Label:     req.Label,
		RequestID: req.RequestID,
		seq:       s.seq,
		state:     Queued,
		created:   time.Now(),
		done:      make(chan struct{}),
	}
	s.jobs[j.ID] = j
	s.mu.Unlock()

	// Cache lookup before admission: a hit never consumes a worker or a
	// queue slot. A second lookup happens at dispatch (runJob) so that
	// identical requests submitted back-to-back — before the first one
	// finished — still hit once the first result lands. Misses are
	// counted there, when a job actually runs.
	var key string
	if s.cache != nil {
		key = cacheKey(req)
		if sum, ok := s.cache.get(key); ok {
			s.submitted.Add(1)
			s.completed.Add(1)
			s.finish(j, Done, sum.withCached(), nil)
			s.log("job cache hit", j, "races", len(sum.Races))
			return j, nil
		}
	}

	// Admission: a non-blocking send under mu (see Scheduler.queue).
	s.mu.Lock()
	err := ErrShutdown
	if !s.closed {
		select {
		case s.queue <- task{j, req, key}:
			err = nil
		default:
			err = ErrQueueFull
		}
	}
	if err != nil {
		delete(s.jobs, j.ID)
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, err
	}
	s.mu.Unlock()
	s.submitted.Add(1)
	s.log("job queued", j, "files", len(req.Files))
	return j, nil
}

// Get returns a job by ID: a live job, or a finished one the scheduler
// still keeps.
func (s *Scheduler) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j, nil
}

// Wait blocks until the job finishes or ctx ends. The job is looked up
// by ID, so one the scheduler no longer keeps is ErrUnknownJob; a caller
// holding the *Job waits on Done instead.
func (s *Scheduler) Wait(ctx context.Context, id string) (*Job, error) {
	j, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	select {
	case <-j.Done():
		return j, nil
	case <-ctx.Done():
		return j, ctx.Err()
	}
}

// Cancel cancels a job: a queued job is marked canceled before it runs, a
// running job's context is canceled (the pipeline returns within
// milliseconds). Returns false for unknown or already-finished jobs.
func (s *Scheduler) Cancel(id string) bool {
	j, err := s.Get(id)
	if err != nil {
		return false
	}
	j.mu.Lock()
	switch j.state {
	case Queued:
		j.state = Canceled
		j.err = o2.ErrCanceled
		j.finished = time.Now()
		j.mu.Unlock()
		s.canceled.Add(1)
		s.retire(j)
		close(j.done)
		return true
	case Running:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	}
	j.mu.Unlock()
	return false
}

// Jobs returns snapshots of the jobs the scheduler keeps, in submission
// order.
func (s *Scheduler) Jobs() []View {
	jobs := s.kept()
	slices.SortFunc(jobs, func(a, b *Job) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]View, len(jobs))
	for i, j := range jobs {
		out[i] = j.View()
	}
	return out
}

// log emits a structured job-lifecycle event when a logger is
// configured. Every record carries the job ID, label and (when present)
// the originating request ID; extra attrs follow slog's key/value
// convention.
func (s *Scheduler) log(msg string, j *Job, args ...any) {
	if s.opts.Log == nil {
		return
	}
	attrs := make([]any, 0, 6+len(args))
	attrs = append(attrs, "job", j.ID, "label", j.Label)
	if j.RequestID != "" {
		attrs = append(attrs, "request_id", j.RequestID)
	}
	attrs = append(attrs, args...)
	s.opts.Log.Info(msg, attrs...)
}

// StateCounts returns the number of kept jobs in each lifecycle state —
// the `o2_sched_jobs{state="..."}` gauge behind GET /metrics.
func (s *Scheduler) StateCounts() map[State]int {
	counts := map[State]int{Queued: 0, Running: 0, Done: 0, Failed: 0, Canceled: 0}
	for _, j := range s.kept() {
		counts[j.State()]++
	}
	return counts
}

// kept returns the jobs the scheduler keeps, in no particular order.
func (s *Scheduler) kept() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	return jobs
}

// finish moves j to a terminal state, retires it and closes Done, in
// that order, so a caller woken by Done finds the job table accounting
// for it.
func (s *Scheduler) finish(j *Job, state State, sum *Summary, err error) {
	if j.finish(state, sum, err) {
		s.retire(j)
		close(j.done)
	}
}

// retire records that j finished and forgets the jobs that finished
// first while more than maxFinished are kept.
func (s *Scheduler) retire(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, j)
	for len(s.finished) > maxFinished {
		delete(s.jobs, s.finished[0].ID)
		s.finished[0] = nil
		s.finished = s.finished[1:]
	}
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() Stats {
	st := Stats{
		Workers:    s.opts.Workers,
		QueueDepth: s.opts.QueueDepth,
		QueueLen:   len(s.queue),
		InFlight:   s.inFlight.Load(),
		Submitted:  s.submitted.Load(),
		Completed:  s.completed.Load(),
		Failed:     s.failed.Load(),
		Canceled:   s.canceled.Load(),
		Rejected:   s.rejected.Load(),
	}
	if s.cache != nil {
		hits, misses, evictions, entries := s.cache.stats()
		st.CacheHits, st.CacheMisses, st.CacheEvictions, st.CacheEntries = hits, misses, evictions, entries
	}
	return st
}

// Shutdown stops admission and drains: queued and running jobs finish
// normally. If ctx ends before the drain completes, every remaining job
// is canceled and Shutdown waits for the (now fast) drain, returning the
// context's error.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}
	// Hard stop: cancel everything still alive, then wait out the drain.
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	s.mu.Unlock()
	<-drained
	return ctx.Err()
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		s.runJob(t.job, t.req, t.key)
	}
}

// runJob runs a queued job, unless it was canceled while queued; key is
// its cache key from admission.
func (s *Scheduler) runJob(j *Job, req Request, key string) {
	timeout := req.Timeout
	if timeout == 0 {
		timeout = s.opts.DefaultTimeout
	}
	ctx, cancel := context.WithCancel(context.Background())
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), timeout)
	}
	defer cancel()
	// Thread the originating request ID into the pipeline's context so any
	// stage (and its logs) can be correlated with the HTTP request.
	ctx = WithRequestID(ctx, req.RequestID)

	prog := obs.NewProgress()
	j.mu.Lock()
	if j.state != Queued {
		j.mu.Unlock()
		return
	}
	j.state = Running
	j.started = time.Now()
	j.cancel = cancel
	j.progress = prog
	j.mu.Unlock()
	s.log("job started", j)

	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	if s.cache != nil {
		if sum, ok := s.cache.get(key); ok {
			s.completed.Add(1)
			s.finish(j, Done, sum.withCached(), nil)
			return
		}
		s.cache.miss()
	}

	cfg := req.Config
	if s.opts.CollectStats {
		cfg.Obs = obs.New()
	} else {
		cfg.Obs = nil
	}
	cfg.Progress = prog

	res, err := o2.AnalyzeSources(ctx, sourcesOf(req.Files), cfg)
	switch kind := o2.Classify(err, 0); kind {
	case o2.OutcomeOK:
		sum := summarize(res)
		if s.cache != nil {
			s.cache.put(key, sum)
		}
		s.completed.Add(1)
		s.finish(j, Done, sum, nil)
		s.log("job done", j, "races", len(sum.Races), "wall", j.Wall())
	case o2.OutcomeCanceled:
		s.canceled.Add(1)
		s.finish(j, Canceled, nil, err)
		s.log("job canceled", j, "wall", j.Wall())
	default:
		s.failed.Add(1)
		s.finish(j, Failed, nil, err)
		s.log("job failed", j, "kind", string(kind), "error", err, "wall", j.Wall())
	}
}

// sourcesOf lowers a Files map onto the canonical typed form, in sorted
// name order so the resulting program is deterministic.
func sourcesOf(files map[string]string) []o2.Source {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	srcs := make([]o2.Source, 0, len(names))
	for _, n := range names {
		srcs = append(srcs, o2.Source{Name: n, Bytes: []byte(files[n])})
	}
	return srcs
}
