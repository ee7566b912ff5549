// Eventapp demonstrates the thread×event unification at the heart of the
// paper on an Android-style application: UI event handlers and a
// background sync thread share an app state object. Run once in plain
// mode (handlers may interleave freely) and once in Android mode (§4.2:
// handlers are serialized by the main thread's event loop) to see
// event–event false positives disappear while the genuine thread–event
// race remains.
//
//	go run ./examples/eventapp
package main

import (
	"context"
	"fmt"
	"log"

	"o2"
)

const app = `
class AppState { field session; field badge; field draft; }

// UI callback: tapping the compose button edits the draft.
class ComposeHandler {
  field st;
  ComposeHandler(s) { this.st = s; }
  onReceive(ev) {
    a = this.st;
    a.draft = ev;          // event-event conflict with SendHandler
    a.badge = ev;          // conflicts with the sync thread
  }
}

// UI callback: tapping send clears the draft.
class SendHandler {
  field st;
  SendHandler(s) { this.st = s; }
  onReceive(ev) {
    a = this.st;
    a.draft = null;        // event-event conflict with ComposeHandler
  }
}

// Background sync thread: updates the badge concurrently with the UI.
class SyncThread {
  field st;
  SyncThread(s) { this.st = s; }
  run() {
    a = this.st;
    a.badge = this;        // RACE with ComposeHandler (thread vs event)
    a.session = this;      // thread-only: no race
  }
}

main {
  st = new AppState();
  compose = new ComposeHandler(st);
  send = new SendHandler(st);
  bg = new SyncThread(st);
  bg.start();
  ev = new Event();
  compose.onReceive(ev);
  send.onReceive(ev);
}
`

func main() {
	for _, mode := range []struct {
		label   string
		android bool
	}{
		{"plain (handlers unordered)", false},
		{"Android mode (handlers serialized, §4.2)", true},
	} {
		cfg := o2.DefaultConfig()
		cfg.Android = mode.android
		res, err := o2.AnalyzeSourceCtx(context.Background(), "eventapp.mini", app, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s ---\n", mode.label)
		fmt.Printf("races: %d\n", len(res.Races()))
		for _, r := range res.Races() {
			ka := res.Analysis.Origins.Get(r.A.Origin).Kind
			kb := res.Analysis.Origins.Get(r.B.Origin).Kind
			fmt.Printf("  [%s vs %s] %s @ %s <-> %s\n", ka, kb, r.Key, r.A.Pos, r.B.Pos)
		}
		fmt.Println()
	}
	fmt.Println("Android mode suppressed the event-event pair (both handlers run on the")
	fmt.Println("main thread) while keeping the thread-vs-event race on badge.")
}
