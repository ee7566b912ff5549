package pta

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// A Bits sits in every pnode twice and in every OSA location record twice:
// keep it at 16 bytes.
func TestBitsSize(t *testing.T) {
	if sz := unsafe.Sizeof(Bits{}); sz > 16 {
		t.Errorf("Bits is %d bytes, want at most 16", sz)
	}
}

// A set that never held more than one element allocates nothing.
func TestBitsInlineAllocs(t *testing.T) {
	var a, b Bits
	for name, fn := range map[string]func(){
		"Add":        func() { a = Bits{}; a.Add(7) },
		"repeat Add": func() { a = Bits{}; a.Add(7); a.Add(7) },
		"Has":        func() { a.Has(7) },
		"ForEach":    func() { a.ForEach(func(uint32) {}) },
		"Clear":      func() { a.Add(7); a.Clear() },
		"UnionWith":  func() { a, b = Bits{}, Bits{}; a.Add(7); b.Add(7); a.UnionWith(&b) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s on a one-element set: %.0f allocs, want 0", name, n)
		}
	}
}

// The largest element fits inline like any other. (A spilled set holding
// it takes 2^26 words, 512 MiB, so no test spills it.)
func TestBitsLargestElement(t *testing.T) {
	const top = math.MaxUint32
	var a Bits
	if !a.Add(top) || a.Add(top) || !a.Has(top) || a.Has(0) || a.Len() != 1 {
		t.Fatalf("inline %d: membership wrong", uint32(top))
	}
	if got := a.Slice(); !slices.Equal(got, []uint32{top}) {
		t.Errorf("Slice = %v", got)
	}
	var b, c Bits
	b.Add(1)
	b.Add(2) // spilled, with words far below top's
	if b.Has(top) || b.Intersects(&a) || a.Intersects(&b) {
		t.Errorf("spilled {1, 2} reports %d", uint32(top))
	}
	if !c.UnionWith(&a) || !c.Has(top) || !a.Copy().Has(top) {
		t.Errorf("union or copy lost %d", uint32(top))
	}
}

func TestBitsBasics(t *testing.T) {
	var b Bits
	if !b.IsEmpty() || b.Len() != 0 || b.Has(0) {
		t.Fatalf("zero value should be empty")
	}
	if !b.Add(5) || b.Add(5) {
		t.Errorf("Add should report change exactly once")
	}
	if !b.Has(5) || b.Has(4) || b.Len() != 1 {
		t.Errorf("membership wrong after Add")
	}
	b.Add(64) // crosses a word boundary
	b.Add(1000)
	if got := b.Slice(); len(got) != 3 || got[0] != 5 || got[1] != 64 || got[2] != 1000 {
		t.Errorf("Slice = %v", got)
	}
}

func TestBitsUnionWith(t *testing.T) {
	var a, b Bits
	a.Add(1)
	a.Add(70)
	b.Add(70)
	b.Add(200)
	if !a.UnionWith(&b) {
		t.Errorf("union should change a")
	}
	if a.UnionWith(&b) {
		t.Errorf("second union should be a no-op")
	}
	want := []uint32{1, 70, 200}
	if got := a.Slice(); len(got) != len(want) {
		t.Errorf("union result = %v", got)
	}
}

func TestBitsIntersects(t *testing.T) {
	var a, b Bits
	a.Add(3)
	b.Add(900)
	if a.Intersects(&b) {
		t.Errorf("disjoint sets intersect")
	}
	b.Add(3)
	if !a.Intersects(&b) {
		t.Errorf("sets sharing 3 do not intersect")
	}
	var empty Bits
	if a.Intersects(&empty) || empty.Intersects(&a) {
		t.Errorf("empty set intersects")
	}
}

func TestBitsCopyIsDeep(t *testing.T) {
	var a Bits
	a.Add(10)
	c := a.Copy()
	c.Add(11)
	if a.Has(11) {
		t.Errorf("Copy shares storage")
	}
}

// TestBitsQuickSetSemantics checks Bits against a map-based model with
// random operation sequences.
func TestBitsQuickSetSemantics(t *testing.T) {
	f := func(ops []uint16) bool {
		var b Bits
		model := map[uint32]bool{}
		for _, op := range ops {
			v := uint32(op % 2048)
			switch op % 3 {
			case 0, 1:
				changed := b.Add(v)
				if changed == model[v] {
					return false // Add must report change iff absent
				}
				model[v] = true
			case 2:
				if b.Has(v) != model[v] {
					return false
				}
			}
		}
		if b.Len() != len(model) {
			return false
		}
		var keys []uint32
		for k := range model {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		got := b.Slice()
		if len(got) != len(keys) {
			return false
		}
		for i := range keys {
			if got[i] != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBitsQuickUnionIntersect checks the algebra of union and
// intersection against the model.
func TestBitsQuickUnionIntersect(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		var a, b Bits
		ma, mb := map[uint32]bool{}, map[uint32]bool{}
		for _, x := range xs {
			a.Add(uint32(x % 4096))
			ma[uint32(x%4096)] = true
		}
		for _, y := range ys {
			b.Add(uint32(y % 4096))
			mb[uint32(y%4096)] = true
		}
		inter := false
		for k := range ma {
			if mb[k] {
				inter = true
			}
		}
		if a.Intersects(&b) != inter || b.Intersects(&a) != inter {
			return false
		}
		u := a.Copy()
		u.UnionWith(&b)
		if u.Len() != len(union(ma, mb)) {
			return false
		}
		// union is monotone: contains both operands
		ok := true
		a.ForEach(func(v uint32) {
			if !u.Has(v) {
				ok = false
			}
		})
		b.ForEach(func(v uint32) {
			if !u.Has(v) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBitsQuickShortSequences runs two sets through short random
// operation sequences, so inline sets, the spill on the second element,
// element 0 and the domain's largest element all occur often, and checks
// every result and both sets against a map model after each step.
func TestBitsQuickShortSequences(t *testing.T) {
	const top = 4095 // the domain's largest element
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		elem := func() uint32 {
			switch r.Intn(4) {
			case 0:
				return 0
			case 1:
				return top
			}
			return uint32(r.Intn(top + 1))
		}
		var sets [2]Bits
		models := [2]map[uint32]bool{{}, {}}
		for range r.Intn(7) {
			k := r.Intn(2)
			b, m := &sets[k], models[k]
			switch r.Intn(5) {
			case 0, 1:
				v := elem()
				if b.Add(v) == m[v] {
					return false
				}
				m[v] = true
			case 2:
				if v := elem(); b.Has(v) != m[v] {
					return false
				}
			case 3:
				b.Clear()
				clear(m)
			case 4:
				changed := false
				for v := range models[1-k] {
					changed = changed || !m[v]
					m[v] = true
				}
				if b.UnionWith(&sets[1-k]) != changed {
					return false
				}
			}
			for k := range sets {
				if !matchesModel(&sets[k], models[k]) || !matchesModel(sets[k].Copy(), models[k]) {
					return false
				}
			}
			inter := false
			for v := range models[0] {
				inter = inter || models[1][v]
			}
			if sets[0].Intersects(&sets[1]) != inter || sets[1].Intersects(&sets[0]) != inter {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// matchesModel reports whether b holds exactly m's elements.
func matchesModel(b *Bits, m map[uint32]bool) bool {
	want := make([]uint32, 0, len(m))
	for v := range m {
		want = append(want, v)
	}
	slices.Sort(want)
	return b.Len() == len(m) && b.IsEmpty() == (len(m) == 0) && slices.Equal(b.Slice(), want)
}

func union(a, b map[uint32]bool) map[uint32]bool {
	u := map[uint32]bool{}
	for k := range a {
		u[k] = true
	}
	for k := range b {
		u[k] = true
	}
	return u
}

func TestBitsForEachOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b Bits
	for i := 0; i < 500; i++ {
		b.Add(uint32(rng.Intn(10000)))
	}
	last := -1
	b.ForEach(func(v uint32) {
		if int(v) <= last {
			t.Fatalf("ForEach out of order: %d after %d", v, last)
		}
		last = int(v)
	})
}
