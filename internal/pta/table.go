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
