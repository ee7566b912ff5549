package pta

import (
	"context"
	"testing"
	"time"
)

// waitTripped polls l until it trips or a generous deadline passes: the
// AfterFunc trip runs on its own goroutine, so it lands shortly after
// cancel returns rather than inside it.
func waitTripped(l *Latch) bool {
	deadline := time.Now().Add(5 * time.Second)
	for !l.Tripped() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

func TestWatchCancel(t *testing.T) {
	t.Run("cancel trips", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		l, stop := WatchCancel(ctx)
		defer stop()
		if l == nil || l.Tripped() {
			t.Fatalf("latch before cancel: %v, want armed and untripped", l)
		}
		cancel()
		if !waitTripped(l) {
			t.Fatal("cancel did not trip the latch")
		}
		stop() // a stop after the trip is safe
		stop()
	})

	t.Run("already canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		l, stop := WatchCancel(ctx)
		defer stop()
		if !waitTripped(l) {
			t.Fatal("an already-ended context did not trip the latch")
		}
	})

	t.Run("stop before cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		l, stop := WatchCancel(ctx)
		stop()
		stop() // idempotent
		cancel()
		// Give a trip that stop failed to deregister time to land.
		time.Sleep(20 * time.Millisecond)
		if l.Tripped() {
			t.Fatal("latch tripped after stop")
		}
	})

	t.Run("background", func(t *testing.T) {
		l, stop := WatchCancel(context.Background())
		stop()
		stop()
		if l != nil {
			t.Fatalf("Background gave latch %v, want nil", l)
		}
		if l.Tripped() {
			t.Fatal("nil latch tripped")
		}
	})
}
