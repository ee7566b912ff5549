package o2

import (
	"fmt"
	"testing"
)

// Tests for the synchronization extensions the paper lists as future work
// (§4: "we aim to support atomics and semaphores ... by adding new
// happens-before rules"): volatile (atomic) fields and condition-variable
// wait/notify edges.

func TestVolatileFieldNoRace(t *testing.T) {
	src := `
class Flags { volatile field stop; field plain; }
class W {
  field f;
  W(f) { this.f = f; }
  run() {
    x = this.f;
    x.stop = this;    // volatile: synchronization, not a race
    x.plain = this;   // plain: races
  }
}
main {
  f = new Flags();
  w1 = new W(f);
  w2 = new W(f);
  w1.start();
  w2.start();
}
`
	res := analyze(t, src, DefaultConfig())
	if n := len(res.Races()); n != 1 {
		for _, r := range res.Races() {
			t.Logf("%s", r.String())
		}
		t.Fatalf("want 1 race (plain only), got %d", n)
	}
	if f := res.Races()[0].Key.Field; f != "plain" {
		t.Errorf("race on %q, want plain", f)
	}
}

func TestVolatileStaticNoRace(t *testing.T) {
	src := `
class G {
  static volatile field running;
  static field counter;
}
class W {
  run() {
    G.running = this;
    G.counter = this;
  }
}
main {
  w1 = new W();
  w2 = new W();
  w1.start();
  w2.start();
}
`
	res := analyze(t, src, DefaultConfig())
	if n := len(res.Races()); n != 1 {
		t.Fatalf("want 1 race (counter only), got %d", n)
	}
	if s := res.Races()[0].Key.Static; s != "G.counter" {
		t.Errorf("race on %q, want G.counter", s)
	}
}

func TestVolatileInherited(t *testing.T) {
	src := `
class Base { volatile field state; }
class Derived extends Base { }
class W {
  field d;
  W(d) { this.d = d; }
  run() { x = this.d; x.state = this; }
}
main {
  d = new Derived();
  w1 = new W(d);
  w2 = new W(d);
  w1.start();
  w2.start();
}
`
	res := analyze(t, src, DefaultConfig())
	if n := len(res.Races()); n != 0 {
		t.Fatalf("inherited volatile should suppress the race: got %d", n)
	}
}

// Producer initializes data, then notifies; consumer waits, then reads.
// The notify→wait happens-before edge orders them: no race. Removing the
// notify/wait pair restores the race.
func TestWaitNotifyOrdering(t *testing.T) {
	synced := `
class Box { field data; }
class Producer {
  field b; field cond;
  Producer(b, c) { this.b = b; this.cond = c; }
  run() {
    x = this.b;
    x.data = this;     // before notify
    c = this.cond;
    c.notify();
  }
}
class Consumer {
  field b; field cond;
  Consumer(b, c) { this.b = b; this.cond = c; }
  run() {
    c = this.cond;
    c.wait();
    x = this.b;
    r = x.data;        // after wait: ordered after the producer write
  }
}
main {
  b = new Box();
  c = new Cond();
  p = new Producer(b, c);
  q = new Consumer(b, c);
  p.start();
  q.start();
}
`
	res := analyze(t, synced, DefaultConfig())
	if n := len(res.Races()); n != 0 {
		for _, r := range res.Races() {
			t.Logf("%s", r.String())
		}
		t.Fatalf("notify→wait edge should order producer and consumer: %d races", n)
	}

	unsynced := `
class Box { field data; }
class Producer {
  field b;
  Producer(b) { this.b = b; }
  run() { x = this.b; x.data = this; }
}
class Consumer {
  field b;
  Consumer(b) { this.b = b; }
  run() { x = this.b; r = x.data; }
}
main {
  b = new Box();
  p = new Producer(b);
  q = new Consumer(b);
  p.start();
  q.start();
}
`
	res2 := analyze(t, unsynced, DefaultConfig())
	if n := len(res2.Races()); n != 1 {
		t.Fatalf("without wait/notify the pair must race: got %d", n)
	}
}

// A write AFTER the wait still races with the producer's post-notify code:
// the edge only orders notify-prefix before wait-suffix.
func TestWaitNotifyDoesNotOverOrder(t *testing.T) {
	src := `
class Box { field data; field late; }
class Producer {
  field b; field cond;
  Producer(b, c) { this.b = b; this.cond = c; }
  run() {
    c = this.cond;
    c.notify();
    x = this.b;
    x.late = this;     // after notify: unordered with consumer
  }
}
class Consumer {
  field b; field cond;
  Consumer(b, c) { this.b = b; this.cond = c; }
  run() {
    c = this.cond;
    c.wait();
    x = this.b;
    x.late = this;     // races with the producer's post-notify write
  }
}
main {
  b = new Box();
  c = new Cond();
  p = new Producer(b, c);
  q = new Consumer(b, c);
  p.start();
  q.start();
}
`
	res := analyze(t, src, DefaultConfig())
	if n := len(res.Races()); n != 1 {
		for _, r := range res.Races() {
			t.Logf("%s", r.String())
		}
		t.Fatalf("post-notify writes must still race: got %d", n)
	}
	if f := res.Races()[0].Key.Field; f != "late" {
		t.Errorf("race on %q, want late", f)
	}
}

// A user method named like a condition-variable or WaitGroup operation
// is an ordinary call: SHB traces its body, so a race inside it is
// reported exactly as under any other name.
func TestUserMethodNamedLikeSyncOp(t *testing.T) {
	src := func(method string) string {
		return fmt.Sprintf(`
class Shared {
  field data;
  %[1]s() { this.data = this; }
}
class W {
  field sh;
  W(sh) { this.sh = sh; }
  run() { s = this.sh; s.%[1]s(); }
}
main {
  sh = new Shared();
  w1 = new W(sh);
  w2 = new W(sh);
  w1.start();
  w2.start();
}
`, method)
	}
	want := analyze(t, src("bump"), DefaultConfig()).Races()
	if len(want) != 1 || want[0].Key.Field != "data" {
		t.Fatalf("setup: want one race on data, got %d", len(want))
	}
	for _, m := range []string{"wait", "notify", "notifyAll", "signal", "Add", "Done", "Wait"} {
		got := analyze(t, src(m), DefaultConfig()).Races()
		if len(got) != 1 || got[0].Key != want[0].Key || got[0].A.Pos != want[0].A.Pos || got[0].B.Pos != want[0].B.Pos {
			t.Errorf("method %s: %d races, want the race %s reports", m, len(got), "bump")
		}
	}
}

// Extension analyses exposed on the facade.
func TestFacadeDeadlockAndOverSync(t *testing.T) {
	src := `
class D { field v; }
class W1 {
  field a; field b;
  W1(a, b) { this.a = a; this.b = b; }
  run() {
    x = this.a;
    y = this.b;
    d = new D();
    sync (x) { sync (y) { d.v = this; } }
  }
}
class W2 {
  field a; field b;
  W2(a, b) { this.a = a; this.b = b; }
  run() {
    x = this.a;
    y = this.b;
    d = new D();
    sync (y) { sync (x) { d.v = this; } }
  }
}
main {
  a = new LockA();
  b = new LockB();
  w1 = new W1(a, b);
  w2 = new W2(a, b);
  w1.start();
  w2.start();
}
`
	res := analyze(t, src, DefaultConfig())
	dl := res.Deadlocks()
	if len(dl.Warnings) != 1 {
		t.Errorf("want the AB/BA deadlock, got %d warnings", len(dl.Warnings))
	}
	os := res.OverSync()
	if len(os.Warnings) == 0 {
		t.Errorf("locks guarding only origin-local D should be flagged")
	}
}
