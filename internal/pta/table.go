package pta

import "math/bits"

// firstChunk is the size of a table's first chunk. It keeps a small
// program's tables small: a truth-corpus solve allocates 12.1 KB with 16
// and 19.0 KB with 64, while the presets allocate as much with either.
const firstChunk = 16

// table is a dense arena indexed by I whose elements never move. Chunk
// 0 holds indices [0, firstChunk) and chunk k ≥ 1 holds
// [firstChunk<<(k-1), firstChunk<<k), so the capacity doubles as a
// slice's would, but growing appends a chunk and copies nothing: a
// pointer to an element stays valid while the table grows.
type table[I ~uint32, T any] struct {
	chunks [][]T
	n      I
}

// at returns element i, which must be below len.
func (t *table[I, T]) at(i I) *T {
	k := bits.Len32(uint32(i) / firstChunk)
	// firstChunk/2<<k&^(firstChunk-1) is chunk k's first index: 0 for
	// chunk 0, firstChunk<<(k-1) after it.
	return &t.chunks[k][uint32(i)-firstChunk/2<<k&^(firstChunk-1)]
}

// push appends v and returns its index.
func (t *table[I, T]) push(v T) I {
	i := t.n
	if k := bits.Len32(uint32(i) / firstChunk); k == len(t.chunks) {
		t.chunks = append(t.chunks, make([]T, max(firstChunk, firstChunk/2<<k)))
	}
	t.n++
	*t.at(i) = v
	return i
}

// len returns the number of elements.
func (t *table[I, T]) len() int { return int(t.n) }

// cap returns the number of elements the chunks hold: chunks 0 to k-1
// hold firstChunk<<(k-1).
func (t *table[I, T]) cap() int {
	if len(t.chunks) == 0 {
		return 0
	}
	return firstChunk << (len(t.chunks) - 1)
}

// reset empties the table. It zeroes the elements it held and keeps the
// chunks, so the next pushes allocate nothing until they pass cap.
func (t *table[I, T]) reset() {
	n := int(t.n)
	for _, c := range t.chunks {
		if n <= 0 {
			break
		}
		clear(c[:min(n, len(c))])
		n -= len(c)
	}
	t.n = 0
}

// A slab's chunks double from slabFirstChunk to slabChunkMax elements.
// The unused tail of each slab's last chunk is what a slab costs over
// plain slices, so both are small: a truth-corpus analysis allocates
// 18.4 KB with 16 and 1,024, 17.8 KB with 4 and 256, and 17.8 KB with
// plain slices; zookeeper's solve allocates 1.97, 1.95 and 1.94 MB.
const (
	slabFirstChunk = 4
	slabChunkMax   = 256
)

// slab carves short lists out of shared chunks, so that most lists cost
// no allocation of their own. A list whose capacity exceeds a quarter of
// slabChunkMax gets its own allocation. Any other list that does not fit
// the current chunk starts the next one, twice the current chunk and at
// least four times the list, so the tail it leaves in the current chunk
// is under a quarter of the next. A carved list's capacity ends at its
// last slot (a three-index slice), so a built-in append to it
// reallocates instead of writing into the next list. The slots a list
// grows out of are not reused until reset.
type slab[T any] struct {
	// chunks holds every chunk made, in the order made; the lists are
	// carved from chunks[:next].
	chunks [][]T
	next   int
	free   []T // the current chunk's uncarved tail
	size   int // the current chunk's size; 0 before the first
}

// make returns a list of length n and capacity c.
func (s *slab[T]) make(n, c int) []T {
	if c > slabChunkMax/4 {
		return make([]T, n, c)
	}
	if c > len(s.free) {
		s.nextChunk(min(max(2*s.size, slabFirstChunk, 4*c), slabChunkMax))
	}
	l := s.free[:n:c]
	s.free = s.free[c:]
	return l
}

// nextChunk makes chunk next current: the one kept from before a reset
// if it holds at least size elements, else a new one of size elements.
func (s *slab[T]) nextChunk(size int) {
	if s.next == len(s.chunks) {
		s.chunks = append(s.chunks, nil)
	}
	if len(s.chunks[s.next]) < size {
		s.chunks[s.next] = make([]T, size)
	}
	s.free = s.chunks[s.next]
	s.size = len(s.free)
	s.next++
}

// reset forgets every carved list: it zeroes the chunks they were carved
// from and keeps them for the next carves. Lists given their own
// allocation are not kept.
func (s *slab[T]) reset() {
	for _, c := range s.chunks[:s.next] {
		clear(c)
	}
	s.next, s.free, s.size = 0, nil, 0
}

// append appends v to l, first moving a full l to a list of twice its
// capacity.
func (s *slab[T]) append(l []T, v T) []T {
	if len(l) == cap(l) {
		m := s.make(len(l), max(2*cap(l), 1))
		copy(m, l)
		l = m
	}
	return append(l, v)
}
