package pta

import "math/bits"

// Bits is a growable bitset over uint32 element IDs. The zero value is an
// empty set.
type Bits struct {
	w []uint64
}

// Add inserts i, reporting whether the set changed.
func (b *Bits) Add(i uint32) bool {
	word, bit := int(i>>6), i&63
	if word >= len(b.w) {
		b.w = append(b.w, make([]uint64, word+1-len(b.w))...)
	}
	m := uint64(1) << bit
	if b.w[word]&m != 0 {
		return false
	}
	b.w[word] |= m
	return true
}

// Has reports whether i is in the set.
func (b *Bits) Has(i uint32) bool {
	word := int(i >> 6)
	return word < len(b.w) && b.w[word]&(1<<(i&63)) != 0
}

// UnionWith ors c into b, reporting whether b changed.
func (b *Bits) UnionWith(c *Bits) bool {
	changed := false
	if len(b.w) < len(c.w) {
		b.w = append(b.w, make([]uint64, len(c.w)-len(b.w))...)
	}
	for i, w := range c.w {
		if w&^b.w[i] != 0 {
			b.w[i] |= w
			changed = true
		}
	}
	return changed
}

// Clear empties b, keeping its storage for reuse.
func (b *Bits) Clear() { clear(b.w) }

// Intersects reports whether b and c share an element.
func (b *Bits) Intersects(c *Bits) bool {
	n := len(b.w)
	if len(c.w) < n {
		n = len(c.w)
	}
	for i := 0; i < n; i++ {
		if b.w[i]&c.w[i] != 0 {
			return true
		}
	}
	return false
}

// Len returns the number of elements.
func (b *Bits) Len() int {
	n := 0
	for _, w := range b.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no elements.
func (b *Bits) IsEmpty() bool {
	for _, w := range b.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for each element in ascending order.
func (b *Bits) ForEach(fn func(uint32)) {
	for wi, w := range b.w {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(uint32(wi*64 + bit))
			w &= w - 1
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
	c := &Bits{w: make([]uint64, len(b.w))}
	copy(c.w, b.w)
	return c
}
