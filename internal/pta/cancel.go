// Cancellation latch: the pipeline phases (pta solve, osa traversal, shb
// build, race detect) all abort promptly when their context ends, but the
// hot loops run millions of iterations and context.Context.Err() takes a
// mutex on every call (~8ns, plus cache contention across detection
// workers). A Latch converts the context's end into one atomic bool via
// context.AfterFunc; the hot loops poll the bool on a stride (a relaxed
// atomic load, ~0.4ns, and a plain nil compare when the context is not
// cancellable at all).

package pta

import (
	"context"
	"sync/atomic"
)

// Latch is a one-way cancellation flag. The zero value is armed and not
// tripped. A nil *Latch is valid and never trips, so phases running under
// context.Background() pay only a nil check.
type Latch struct {
	flag atomic.Bool
}

// Trip sets the latch. Idempotent, safe from any goroutine.
func (l *Latch) Trip() { l.flag.Store(true) }

// Tripped reports whether the latch has been set. Nil-safe.
func (l *Latch) Tripped() bool { return l != nil && l.flag.Load() }

// WatchCancel bridges a context into a Latch: context.AfterFunc trips the
// latch when the context ends. The returned stop function deregisters the
// trip and must be called (defer it) when the phase finishes; it is
// idempotent. When the context can never be canceled (nil, Background,
// TODO) the latch is elided — the nil latch's Tripped is a nil compare.
func WatchCancel(ctx context.Context) (*Latch, func()) {
	if ctx == nil || ctx.Done() == nil {
		return nil, func() {}
	}
	l := &Latch{}
	stop := context.AfterFunc(ctx, l.Trip)
	return l, func() { stop() }
}
