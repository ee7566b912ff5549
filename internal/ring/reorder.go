// Package ring holds the streaming corpus frontend's ordering primitive:
// a bounded reorder window that fans work out to any number of workers
// and hands results back in input order, with memory bounded by the
// window rather than the input length.
package ring

import "context"

// Reorder is a bounded reorder window: a single dispatcher reserves slots
// in input order, any number of workers complete them in whatever order
// they finish, and a single consumer receives the results strictly in the
// order the slots were reserved. It is the ordering backbone of the
// streaming corpus frontend (o2.AnalyzeCorpus), shaped after the
// osmpbf-style decoder: fan work out to NumCPU workers, emit in input
// order, and never buffer more than the window.
//
// The window bound doubles as backpressure: at most `window` slots can be
// reserved beyond the consumed prefix, so a slow head-of-line item blocks
// the dispatcher (and therefore admission of new work) instead of growing
// an unbounded pending buffer. Memory is O(window), independent of the
// input length.
//
// Concurrency contract: Open is called by one dispatcher goroutine (the
// call order defines the output order), Next by one consumer goroutine;
// each Cell is completed exactly once, from any goroutine. Completing a
// cell never blocks.
type Reorder[T any] struct {
	cells chan Cell[T]
}

// Cell is one reserved slot of the window. Complete publishes its value;
// the buffered channel makes completion non-blocking and order-free.
type Cell[T any] chan T

// Complete publishes the slot's result. Must be called exactly once.
func (c Cell[T]) Complete(v T) { c <- v }

// NewReorder returns a window admitting at most `window` open slots
// (minimum 1).
func NewReorder[T any](window int) *Reorder[T] {
	if window < 1 {
		window = 1
	}
	return &Reorder[T]{cells: make(chan Cell[T], window)}
}

// Open reserves the next slot in input order, blocking while the window
// is full until the consumer frees one or ctx ends (then ctx's error is
// returned). Single-dispatcher only: the Open order is the Next order.
func (r *Reorder[T]) Open(ctx context.Context) (Cell[T], error) {
	c := make(Cell[T], 1)
	select {
	case r.cells <- c:
		return c, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close marks the input as exhausted: after the already-open slots drain,
// Next reports ok=false. Only the dispatcher may call Close, once.
func (r *Reorder[T]) Close() { close(r.cells) }

// Next returns the next result in input order, blocking until the head
// slot completes. ok=false means Close was called and every slot has been
// consumed. A ctx error aborts the wait; outstanding cells are abandoned
// to the garbage collector (workers completing them never block).
func (r *Reorder[T]) Next(ctx context.Context) (v T, ok bool, err error) {
	var zero T
	select {
	case c, open := <-r.cells:
		if !open {
			return zero, false, nil
		}
		select {
		case v = <-c:
			return v, true, nil
		case <-ctx.Done():
			return zero, false, ctx.Err()
		}
	case <-ctx.Done():
		return zero, false, ctx.Err()
	}
}
