package o2

import (
	"context"
	"strings"
	"testing"

	"o2/internal/cases"
)

func analyze(t *testing.T, src string, cfg Config) *Result {
	t.Helper()
	res, err := AnalyzeSourceCtx(context.Background(), "test.mini", src, cfg)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return res
}

const sharedCounter = `
class Counter { field count; }
class Worker {
  field c;
  Worker(c) { this.c = c; }
  run() {
    x = this.c;
    x.count = this;
  }
}
main {
  c = new Counter();
  w1 = new Worker(c);
  w2 = new Worker(c);
  w1.start();
  w2.start();
}
`

func TestSharedCounterRace(t *testing.T) {
	res := analyze(t, sharedCounter, DefaultConfig())
	if n := len(res.Races()); n != 1 {
		for _, r := range res.Races() {
			t.Logf("%s", r.String())
		}
		t.Fatalf("want 1 race, got %d", n)
	}
	r := res.Races()[0]
	if r.Key.Field != "count" {
		t.Errorf("race on field %q, want count", r.Key.Field)
	}
	if r.A.Origin == r.B.Origin {
		t.Errorf("race within one origin: %v vs %v", r.A, r.B)
	}
}

const lockedCounter = `
class Counter { field count; }
class Worker {
  field c;
  Worker(c) { this.c = c; }
  run() {
    x = this.c;
    sync (x) {
      x.count = this;
    }
  }
}
main {
  c = new Counter();
  w1 = new Worker(c);
  w2 = new Worker(c);
  w1.start();
  w2.start();
}
`

func TestLockedCounterNoRace(t *testing.T) {
	res := analyze(t, lockedCounter, DefaultConfig())
	if n := len(res.Races()); n != 0 {
		for _, r := range res.Races() {
			t.Logf("%s", r.String())
		}
		t.Fatalf("want 0 races, got %d", n)
	}
}

const joinedCounter = `
class Counter { field count; }
class Worker {
  field c;
  Worker(c) { this.c = c; }
  run() {
    x = this.c;
    x.count = this;
  }
}
main {
  c = new Counter();
  w1 = new Worker(c);
  w2 = new Worker(c);
  w1.start();
  w1.join();
  w2.start();
}
`

func TestJoinOrdersOrigins(t *testing.T) {
	res := analyze(t, joinedCounter, DefaultConfig())
	if n := len(res.Races()); n != 0 {
		for _, r := range res.Races() {
			t.Logf("%s", r.String())
		}
		t.Fatalf("want 0 races (join orders the threads), got %d", n)
	}
}

func TestMainVsThreadRace(t *testing.T) {
	src := `
class Counter { field count; }
class Worker {
  field c;
  Worker(c) { this.c = c; }
  run() { x = this.c; x.count = this; }
}
main {
  c = new Counter();
  w = new Worker(c);
  w.start();
  c.count = w;   // racy with the thread's write
}
`
	res := analyze(t, src, DefaultConfig())
	if n := len(res.Races()); n != 1 {
		t.Fatalf("want 1 race between main and thread, got %d", n)
	}
}

func TestMainBeforeStartNoRace(t *testing.T) {
	src := `
class Counter { field count; }
class Worker {
  field c;
  Worker(c) { this.c = c; }
  run() { x = this.c; x.count = this; }
}
main {
  c = new Counter();
  c.count = null;   // before start: ordered by the spawn edge
  w = new Worker(c);
  w.start();
}
`
	res := analyze(t, src, DefaultConfig())
	if n := len(res.Races()); n != 0 {
		for _, r := range res.Races() {
			t.Logf("%s", r.String())
		}
		t.Fatalf("want 0 races (write precedes spawn), got %d", n)
	}
}

// TestFigure2OriginPrecision checks the paper's running example: with
// origins, only the genuinely shared s.data write races; the per-origin
// Data and Box objects stay local. The 0-ctx baseline conflates them and
// reports more races.
func TestFigure2OriginPrecision(t *testing.T) {
	o2res := analyze(t, cases.Figure2, DefaultConfig())
	if n := len(o2res.Races()); n != 1 {
		for _, r := range o2res.Races() {
			t.Logf("%s", r.String())
		}
		t.Fatalf("O2: want exactly 1 race (on s.data), got %d", n)
	}
	if f := o2res.Races()[0].Key.Field; f != "data" {
		t.Errorf("O2 race on field %q, want data", f)
	}

	cfg := DefaultConfig()
	cfg.Policy = Insensitive
	base := analyze(t, cases.Figure2, cfg)
	if len(base.Races()) <= len(o2res.Races()) {
		for _, r := range base.Races() {
			t.Logf("0-ctx: %s", r.String())
		}
		t.Errorf("0-ctx should report more races than O2: got %d vs %d",
			len(base.Races()), len(o2res.Races()))
	}
}

// TestFigure3ContextSwitch checks the context switch at origin
// allocations: the super constructor's Box allocation must yield one
// object per origin under OPA (no race), but a single falsely-shared
// object under 0-ctx (false race).
func TestFigure3ContextSwitch(t *testing.T) {
	o2res := analyze(t, cases.Figure3, DefaultConfig())
	if n := len(o2res.Races()); n != 0 {
		for _, r := range o2res.Races() {
			t.Logf("%s", r.String())
		}
		t.Fatalf("O2: want 0 races (f is origin-local), got %d", n)
	}

	cfg := DefaultConfig()
	cfg.Policy = Insensitive
	base := analyze(t, cases.Figure3, cfg)
	if n := len(base.Races()); n == 0 {
		t.Errorf("0-ctx should report the false race on the conflated Box")
	}
}

// TestEventThreadRace exercises the thread×event interaction that origins
// unify: an event handler and a thread write the same location.
func TestEventThreadRace(t *testing.T) {
	src := `
class Stats { field hits; }
class Handler {
  field s;
  Handler(s) { this.s = s; }
  handleEvent(ev) {
    x = this.s;
    x.hits = ev;       // unprotected write from the event handler
  }
}
class Flusher {
  field s;
  Flusher(s) { this.s = s; }
  run() {
    x = this.s;
    sync (x) { x.hits = this; }   // locked write from the thread
  }
}
main {
  s = new Stats();
  h = new Handler(s);
  f = new Flusher(s);
  f.start();
  ev = new Event();
  h.handleEvent(ev);
}
`
	res := analyze(t, src, DefaultConfig())
	if n := len(res.Races()); n != 1 {
		for _, r := range res.Races() {
			t.Logf("%s", r.String())
		}
		t.Fatalf("want 1 thread-vs-event race, got %d", n)
	}
	r := res.Races()[0]
	kinds := map[string]bool{}
	kinds[res.Analysis.Origins.Get(r.A.Origin).Kind.String()] = true
	kinds[res.Analysis.Origins.Get(r.B.Origin).Kind.String()] = true
	if !kinds["thread"] || !kinds["event"] {
		t.Errorf("race should span a thread and an event origin, got %v", kinds)
	}
}

// TestAndroidModeSerializesEvents checks §4.2: with the Android global
// event lock, two handlers no longer race with each other, but a handler
// still races with a background thread.
func TestAndroidModeSerializesEvents(t *testing.T) {
	src := `
class Ctx { field app; }
class H1 {
  field c;
  H1(c) { this.c = c; }
  onReceive(ev) { x = this.c; x.app = ev; }
}
class H2 {
  field c;
  H2(c) { this.c = c; }
  onReceive(ev) { x = this.c; x.app = ev; }
}
class Bg {
  field c;
  Bg(c) { this.c = c; }
  run() { x = this.c; x.app = this; }
}
main {
  c = new Ctx();
  h1 = new H1(c);
  h2 = new H2(c);
  e = new Event();
  h1.onReceive(e);
  h2.onReceive(e);
  b = new Bg(c);
  b.start();
}
`
	cfg := DefaultConfig()
	cfg.Android = true
	res := analyze(t, src, cfg)
	for _, r := range res.Races() {
		ka := res.Analysis.Origins.Get(r.A.Origin).Kind
		kb := res.Analysis.Origins.Get(r.B.Origin).Kind
		if ka.String() == "event" && kb.String() == "event" {
			t.Errorf("event-event race should be suppressed in Android mode: %s", r.String())
		}
	}
	if len(res.Races()) == 0 {
		t.Errorf("thread-vs-event race should survive Android mode")
	}

	// Without Android mode, the two handlers do race with each other.
	plain := analyze(t, src, DefaultConfig())
	if len(plain.Races()) <= len(res.Races()) {
		t.Errorf("plain mode should report more races than Android mode: %d vs %d",
			len(plain.Races()), len(res.Races()))
	}
}

// TestLoopSpawnReplicatesOrigin checks §3.2: a thread allocated in a loop
// gets concurrent instances, so even a single textual write can race with
// itself across instances.
func TestLoopSpawnReplicatesOrigin(t *testing.T) {
	src := `
class Shared { field v; }
class W {
  field s;
  W(s) { this.s = s; }
  run() { x = this.s; x.v = this; }
}
main {
  s = new Shared();
  while (i < 10) {
    w = new W(s);
    w.start();
  }
}
`
	res := analyze(t, src, DefaultConfig())
	if n := len(res.Races()); n != 1 {
		for _, r := range res.Races() {
			t.Logf("%s", r.String())
		}
		t.Fatalf("want 1 self-race across loop instances, got %d", n)
	}

	// The same program with the write locked is race-free.
	locked := `
class Shared { field v; }
class W {
  field s;
  W(s) { this.s = s; }
  run() { x = this.s; sync (x) { x.v = this; } }
}
main {
  s = new Shared();
  while (i < 10) {
    w = new W(s);
    w.start();
  }
}
`
	res2 := analyze(t, locked, DefaultConfig())
	if n := len(res2.Races()); n != 0 {
		t.Fatalf("want 0 races with lock, got %d", n)
	}
}

// TestOriginAnnotation exercises §3.1's developer annotations: a
// customized user-level task system whose entry point matches no Table 1
// name is marked with the `origin` modifier and becomes a full origin.
func TestOriginAnnotation(t *testing.T) {
	src := `
class Pool { field queue; }
class Task {
  field p;
  Task(p) { this.p = p; }
  origin execute(arg) {            // annotated entry: not in Table 1
    x = this.p;
    x.queue = arg;                 // races across task instances
  }
}
main {
  p = new Pool();
  t1 = new Task(p);
  t2 = new Task(p);
  a = new Arg();
  t1.execute(a);
  t2.execute(a);
}
`
	res := analyze(t, src, DefaultConfig())
	threads := 0
	for _, org := range res.Analysis.Origins.Origins {
		if org.Kind.String() == "thread" {
			threads++
		}
	}
	if threads != 2 {
		t.Fatalf("annotated entries should create 2 origins, got %d", threads)
	}
	if n := len(res.Races()); n != 1 {
		for _, r := range res.Races() {
			t.Logf("%s", r.String())
		}
		t.Fatalf("want 1 race between annotated origins, got %d", n)
	}

	// Without the annotation the same program has a single origin and no
	// races (everything runs on main).
	plain := analyze(t, strings.Replace(src, "origin execute", "execute", 1), DefaultConfig())
	if n := len(plain.Races()); n != 0 {
		t.Fatalf("unannotated entry should run on main: got %d races", n)
	}
}
