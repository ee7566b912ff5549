package race_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"o2/internal/race"
)

// TestWitnessUnlocked checks the structured evidence for the plain
// two-writer race: both sides unlocked, no HB path, thread origins with a
// spawn chain ending at main, and the text rendering derived from the
// same witness.
func TestWitnessUnlocked(t *testing.T) {
	a, rep := detectSHB(t, twoWriters)
	if len(rep.report.Races) != 1 {
		t.Fatalf("setup: %d races", len(rep.report.Races))
	}
	w := race.BuildWitness(a, rep.graph, &rep.report.Races[0])
	if w.Schema != race.WitnessSchema {
		t.Errorf("schema = %d, want %d", w.Schema, race.WitnessSchema)
	}
	if w.Locks.Verdict != race.LocksNone || len(w.Locks.A) != 0 || len(w.Locks.Common) != 0 {
		t.Errorf("locks evidence = %+v, want both-unlocked", w.Locks)
	}
	if w.Ordering.Verdict != race.OrderNoHBPath || w.Ordering.HBAtoB || w.Ordering.HBBtoA {
		t.Errorf("ordering evidence = %+v, want no-hb-path", w.Ordering)
	}
	for _, side := range []race.WitnessAccess{w.A, w.B} {
		if side.Origin.Kind != "thread" {
			t.Errorf("origin kind = %q, want thread", side.Origin.Kind)
		}
		if side.Origin.SpawnPos == "" {
			t.Errorf("origin %s missing spawn pos", side.Origin.Name)
		}
		n := len(side.Origin.SpawnChain)
		if n < 2 || !strings.Contains(side.Origin.SpawnChain[n-1].Origin, "main") {
			t.Errorf("spawn chain %+v should end at main", side.Origin.SpawnChain)
		}
		if side.Origin.SpawnChain[0].Origin != side.Origin.Name {
			t.Errorf("spawn chain %+v should start at the access origin %s",
				side.Origin.SpawnChain, side.Origin.Name)
		}
	}
	if got := race.Explain(a, rep.graph, &rep.report.Races[0]); got != w.Text() {
		t.Errorf("Explain and Witness.Text disagree:\n%s\nvs\n%s", got, w.Text())
	}
}

// TestWitnessDisjointLocks checks the lockset derivation: resolved lock
// names on both sides, sorted, with an explicitly empty intersection.
func TestWitnessDisjointLocks(t *testing.T) {
	prog := `
class S { field v; }
class W {
  field s; field l;
  W(s, l) { this.s = s; this.l = l; }
  run() {
    x = this.s;
    k = this.l;
    sync (k) { x.v = this; }
  }
}
main {
  s = new S();
  l1 = new LockA();
  l2 = new LockB();
  w1 = new W(s, l1);
  w2 = new W(s, l2);
  w1.start();
  w2.start();
}
`
	a, rep := detectSHB(t, prog)
	if len(rep.report.Races) != 1 {
		t.Fatalf("setup: %d races", len(rep.report.Races))
	}
	w := race.BuildWitness(a, rep.graph, &rep.report.Races[0])
	if w.Locks.Verdict != race.LocksDisjoint {
		t.Fatalf("verdict = %q, want disjoint: %+v", w.Locks.Verdict, w.Locks)
	}
	if len(w.Locks.A) == 0 || len(w.Locks.B) == 0 {
		t.Fatalf("lock names missing: %+v", w.Locks)
	}
	if len(w.Locks.Common) != 0 {
		t.Fatalf("common locks %v on a reported race", w.Locks.Common)
	}
	names := strings.Join(w.Locks.A, "") + strings.Join(w.Locks.B, "")
	if !strings.Contains(names, "LockA") || !strings.Contains(names, "LockB") {
		t.Errorf("lock names not resolved to classes: %+v", w.Locks)
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	// Empty lists marshal as [], never null — consumers need no nil checks.
	if bytes.Contains(data, []byte("null")) {
		t.Errorf("witness JSON contains null:\n%s", data)
	}
}

// TestWitnessJSONStable pins byte-stability: two analyses of the same
// source produce byte-identical witness JSON (sorted lock names, sorted
// attr object sets, no map iteration anywhere).
func TestWitnessJSONStable(t *testing.T) {
	render := func() string {
		a, rep := detectSHB(t, twoWriters)
		var all []byte
		for i := range rep.report.Races {
			data, err := race.BuildWitness(a, rep.graph, &rep.report.Races[i]).MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, data...)
		}
		return string(all)
	}
	if one, two := render(), render(); one != two {
		t.Errorf("witness JSON differs across runs:\n%s\nvs\n%s", one, two)
	}
}

// TestWitnessAndroidEventLock: in Android mode event handlers hold the
// sentinel event-loop lock, which is not a heap object. The witness must
// render it symbolically instead of dereferencing object 0 (regression:
// BuildWitness crashed on thread-vs-event races under -android).
func TestWitnessAndroidEventLock(t *testing.T) {
	prog := `
class G { static field v; }
class W {
  W() { }
  run() { c = G.v; }
}
class H {
  H() { }
  onReceive(ev) { G.v = ev; }
}
main {
  w = new W();
  w.start();
  h = new H();
  ev = new Ev();
  h.onReceive(ev);
}
`
	a, rep := detectAndroidSHB(t, prog)
	if len(rep.report.Races) == 0 {
		t.Fatal("setup: no thread-vs-event race reported")
	}
	for i := range rep.report.Races {
		w := race.BuildWitness(a, rep.graph, &rep.report.Races[i])
		found := false
		for _, n := range append(append([]string{}, w.Locks.A...), w.Locks.B...) {
			if n == "<android-event-loop>" {
				found = true
			}
		}
		if !found {
			t.Errorf("race %d: event side does not name the event-loop sentinel: %+v", i, w.Locks)
		}
		if w.Text() == "" {
			t.Errorf("race %d: empty text rendering", i)
		}
	}
}

// TestWitnessSpawnIntoEmptyTrace: each W thread races on data and starts
// an E thread whose run() is empty. Regression: the spawn into E's empty
// trace was an edge to node -1, and building the witness panicked with
// index out of range.
func TestWitnessSpawnIntoEmptyTrace(t *testing.T) {
	prog := `
class S { field data; }
class E { run() { } }
class W {
  field s;
  W(s) { this.s = s; }
  run() { e = new E(); e.start(); sh = this.s; sh.data = this; }
}
main { s = new S(); t1 = new W(s); t2 = new W(s); t1.start(); t2.start(); }
`
	a, rep := detectSHB(t, prog)
	if len(rep.report.Races) != 1 {
		t.Fatalf("setup: %d races, want 1", len(rep.report.Races))
	}
	w := race.BuildWitness(a, rep.graph, &rep.report.Races[0])
	if w.Ordering.Verdict != race.OrderNoHBPath || len(w.Ordering.SyncEdges) != 0 {
		t.Errorf("ordering evidence = %+v, want no-hb-path without sync edges", w.Ordering)
	}
	if got := race.Explain(a, rep.graph, &rep.report.Races[0]); got != w.Text() {
		t.Errorf("Explain and Witness.Text disagree:\n%s\nvs\n%s", got, w.Text())
	}
}
