package pta

import (
	"math/bits"
	"unsafe"
)

// Bits is a growable bitset over uint32 element IDs. The zero value is an
// empty set.
//
// Most points-to sets and origin sets hold one element, so a set keeps
// its first element inline and allocates nothing; the second element
// spills it into a word array behind one pointer. Bits is 16 bytes. A
// value copy of a spilled set shares its words, like a slice: mutate at
// most one of the copies.
type Bits struct {
	// words points to the first word of a spilled set, nil while the set
	// is inline.
	words *uint64
	// n is the word count of a spilled set, else the element count of an
	// inline one (0 or 1).
	n uint32
	// v is the word capacity of a spilled set, else the inline element.
	v uint32
}

// spilled returns a spilled set's words, or nil while the set is inline.
func (b *Bits) spilled() []uint64 {
	if b.words == nil {
		return nil
	}
	return unsafe.Slice(b.words, b.n)
}

// grow returns b's words, spilling b and extending its words with zeros
// so that there are at least n.
func (b *Bits) grow(n int) []uint64 {
	if b.words != nil && n <= int(b.n) {
		return unsafe.Slice(b.words, b.n)
	}
	var w []uint64
	one := b.words == nil && b.n == 1 // the inline element moves into w
	if b.words != nil {
		w = unsafe.Slice(b.words, b.v)[:b.n]
	} else if one {
		n = max(n, int(b.v>>6)+1)
	}
	w = append(w, make([]uint64, n-len(w))...)
	if one {
		w[b.v>>6] = 1 << (b.v & 63)
	}
	b.words, b.n, b.v = unsafe.SliceData(w), uint32(len(w)), uint32(cap(w))
	return w
}

// Add inserts i, reporting whether the set changed.
func (b *Bits) Add(i uint32) bool {
	if b.words == nil {
		if b.n == 0 {
			b.n, b.v = 1, i
			return true
		}
		if b.v == i {
			return false
		}
	}
	w := b.grow(int(i>>6) + 1)
	m := uint64(1) << (i & 63)
	if w[i>>6]&m != 0 {
		return false
	}
	w[i>>6] |= m
	return true
}

// Has reports whether i is in the set.
func (b *Bits) Has(i uint32) bool {
	if b.words == nil {
		return b.n == 1 && b.v == i
	}
	w := b.spilled()
	word := int(i >> 6)
	return word < len(w) && w[word]&(1<<(i&63)) != 0
}

// UnionWith ors c into b, reporting whether b changed.
func (b *Bits) UnionWith(c *Bits) bool {
	if c.words == nil {
		return c.n == 1 && b.Add(c.v)
	}
	cw := c.spilled()
	bw := b.grow(len(cw))
	changed := false
	for i, w := range cw {
		if w&^bw[i] != 0 {
			bw[i] |= w
			changed = true
		}
	}
	return changed
}

// Clear empties b, keeping a spilled set's words for reuse.
func (b *Bits) Clear() {
	if b.words == nil {
		b.n = 0
		return
	}
	clear(b.spilled())
}

// Intersects reports whether b and c share an element.
func (b *Bits) Intersects(c *Bits) bool {
	if b.words == nil {
		return b.n == 1 && c.Has(b.v)
	}
	if c.words == nil {
		return c.n == 1 && b.Has(c.v)
	}
	bw, cw := b.spilled(), c.spilled()
	for i := range min(len(bw), len(cw)) {
		if bw[i]&cw[i] != 0 {
			return true
		}
	}
	return false
}

// Len returns the number of elements.
func (b *Bits) Len() int {
	if b.words == nil {
		return int(b.n)
	}
	n := 0
	for _, w := range b.spilled() {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no elements.
func (b *Bits) IsEmpty() bool {
	if b.words == nil {
		return b.n == 0
	}
	for _, w := range b.spilled() {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for each element in ascending order.
func (b *Bits) ForEach(fn func(uint32)) {
	if b.words == nil {
		if b.n == 1 {
			fn(b.v)
		}
		return
	}
	forEachIn(b.spilled(), fn)
}

// forEachIn calls fn for each bit set in w, in ascending order.
func forEachIn(w []uint64, fn func(uint32)) {
	for wi, x := range w {
		for x != 0 {
			fn(uint32(wi*64 + bits.TrailingZeros64(x)))
			x &= x - 1
		}
	}
}

// Slice returns the elements in ascending order.
func (b *Bits) Slice() []uint32 {
	out := make([]uint32, 0, b.Len())
	b.ForEach(func(i uint32) { out = append(out, i) })
	return out
}

// Copy returns a deep copy of b.
func (b *Bits) Copy() *Bits {
	if b.words == nil {
		return &Bits{n: b.n, v: b.v}
	}
	c := &Bits{}
	copy(c.grow(int(b.n)), b.spilled())
	return c
}
