// Package lockset implements the paper's compact lockset representation
// (§4.1, "Check Lockset"): every distinct combination of mutexes is
// assigned a canonical integer ID and access nodes carry only the ID.
//
// Intersection queries are the race detector's per-pair hot path, so the
// representation is built for them: each canonical set is a bitset over
// *dense* lock indices (lock objects are interned into 0,1,2,… in first-
// seen order), and Intersects is a handful of word ANDs — no map lookups,
// no locks, no allocation. Programs with at most 64 distinct locks (all of
// them, in practice) fit in the one inline word; larger programs spill
// into extra words transparently. The previous implementation cached
// map-backed intersection results behind an RWMutex; the bitset AND is
// cheaper than the cache lookup was, so the cache (and its hit/miss
// counters) is gone.
package lockset

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
)

// ID is a canonical lockset identifier. Empty is the empty lockset.
type ID int32

// Empty is the canonical ID of the empty lockset.
const Empty ID = 0

// GlobalEventLock is the sentinel lock element modeling the Android main
// thread's event serialization (§4.2): all event handlers of one loop hold
// it, so no event–event pair is reported while thread–event pairs remain.
const GlobalEventLock uint32 = 0

// bitset is one canonical set over dense lock indices: lo holds indices
// 0–63 inline, hi spills indices 64+ (hi[i] covers 64*(i+1)…64*(i+2)-1).
// hi is nil for every program with ≤64 distinct locks.
type bitset struct {
	lo uint64
	hi []uint64
}

func (b *bitset) set(idx uint32) {
	if idx < 64 {
		b.lo |= 1 << idx
		return
	}
	w := int(idx-64) >> 6
	for w >= len(b.hi) {
		b.hi = append(b.hi, 0)
	}
	b.hi[w] |= 1 << ((idx - 64) & 63)
}

func (b *bitset) intersects(c *bitset) bool {
	if b.lo&c.lo != 0 {
		return true
	}
	n := len(b.hi)
	if len(c.hi) < n {
		n = len(c.hi)
	}
	for i := 0; i < n; i++ {
		if b.hi[i]&c.hi[i] != 0 {
			return true
		}
	}
	return false
}

// view is an immutable snapshot of the interned sets, republished after
// every intern. Readers (Intersects, Set, Len) load it atomically, so the
// query path takes no lock even while Canon is still interning: appends
// under the table mutex only ever write past the published length, and the
// atomic pointer store/load orders those writes before any read.
type view struct {
	sets [][]uint32 // ID → sorted lock objects
	bits []bitset   // ID → bitset over dense lock indices
}

// Table interns locksets into canonical IDs. Canon is called while the SHB
// graph is built and is guarded by a mutex; Intersects/Set/Len are called
// from the race-detection workers and are lock-free (they read the
// atomically published view). Stats is safe to poll concurrently
// (TestStatsConcurrentReads pins this under -race).
type Table struct {
	mu      sync.Mutex
	index   map[string]ID
	dense   map[uint32]uint32 // lock object → dense bit index
	locks   []uint32          // dense bit index → lock object
	scratch []uint32          // Canon's sort/dedupe buffer, reused across calls
	key     []byte            // Canon's index key buffer, reused across calls
	view    atomic.Pointer[view]
}

// NewTable returns an empty table containing only the empty lockset.
func NewTable() *Table {
	t := &Table{
		index: map[string]ID{"": Empty},
		dense: map[uint32]uint32{},
	}
	t.view.Store(&view{sets: [][]uint32{nil}, bits: []bitset{{}}})
	return t
}

// Stats is a snapshot of the table's size.
type Stats struct {
	// Locks is the number of distinct lock objects interned (the bitset
	// width); Sets the number of distinct locksets including empty.
	Locks int
	Sets  int
}

// Stats returns the current sizes. Safe to call concurrently with Canon
// and Intersects.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	locks := len(t.locks)
	t.mu.Unlock()
	return Stats{Locks: locks, Sets: t.Len()}
}

// Canon returns the canonical ID for the given lock objects (duplicates
// allowed; order irrelevant). Safe for concurrent use, though the builder
// calls it from one goroutine; dense bit indices are assigned in
// first-seen order, so a deterministic build yields deterministic IDs.
func (t *Table) Canon(objs []uint32) ID {
	if len(objs) == 0 {
		return Empty
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := append(t.scratch[:0], objs...)
	slices.Sort(s)
	out := slices.Compact(s)
	t.scratch = s[:0]
	key := t.key[:0]
	for _, x := range out {
		key = binary.LittleEndian.AppendUint32(key, x)
	}
	t.key = key
	if id, ok := t.index[string(key)]; ok {
		return id
	}
	var bs bitset
	for _, obj := range out {
		idx, ok := t.dense[obj]
		if !ok {
			idx = uint32(len(t.locks))
			t.dense[obj] = idx
			t.locks = append(t.locks, obj)
		}
		bs.set(idx)
	}
	old := t.view.Load()
	id := ID(len(old.sets))
	t.index[string(key)] = id
	next := &view{
		sets: append(old.sets, append([]uint32(nil), out...)),
		bits: append(old.bits, bs),
	}
	t.view.Store(next)
	return id
}

// Set returns the sorted elements of a canonical lockset. The returned
// slice must not be modified. Lock-free.
func (t *Table) Set(id ID) []uint32 {
	return t.view.Load().sets[id]
}

// Len returns the number of distinct locksets interned (including empty).
func (t *Table) Len() int {
	return len(t.view.Load().sets)
}

// Intersects reports whether two locksets share a lock: word-wise AND over
// the canonical bitsets. Lock-free, allocation-free, safe for any number
// of concurrent callers.
func (t *Table) Intersects(a, b ID) bool {
	if a == Empty || b == Empty {
		return false
	}
	if a == b {
		return true
	}
	v := t.view.Load()
	return v.bits[a].intersects(&v.bits[b])
}

// IntersectSorted reports whether two sorted slices share an element. It is
// the uncached primitive used by the naive (D4-style) baseline detector.
func IntersectSorted(x, y []uint32) bool {
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] == y[j]:
			return true
		case x[i] < y[j]:
			i++
		default:
			j++
		}
	}
	return false
}
