package pta

import (
	"slices"
	"testing"
)

// Indices on both sides of every chunk boundary read back what was
// pushed, and an element keeps its address while the table grows.
func TestTableChunks(t *testing.T) {
	var tb table[NodeID, int]
	var ptrs []*int
	const n = 1 << 14
	for i := 0; i < n; i++ {
		if id := tb.push(i); int(id) != i {
			t.Fatalf("push %d returned index %d", i, id)
		}
		ptrs = append(ptrs, tb.at(NodeID(i)))
	}
	if tb.len() != n {
		t.Fatalf("len = %d, want %d", tb.len(), n)
	}
	for _, i := range []int{0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 127, 128, 255, 256, 1023, 1024, n - 1} {
		if got := *tb.at(NodeID(i)); got != i {
			t.Errorf("at(%d) = %d", i, got)
		}
	}
	for i, p := range ptrs {
		if p != tb.at(NodeID(i)) || *p != i {
			t.Fatalf("element %d moved or changed while the table grew", i)
		}
	}
	// Chunk k ≥ 1 holds [firstChunk<<(k-1), firstChunk<<k): sizes 16, 16, 32, 64, ...
	for k, c := range tb.chunks {
		want := firstChunk
		if k > 1 {
			want = firstChunk << (k - 1)
		}
		if len(c) != want {
			t.Errorf("chunk %d holds %d elements, want %d", k, len(c), want)
		}
	}
}

// A slab's chunks start at slabFirstChunk elements and double up to
// slabChunkMax; a list that does not fit starts a chunk at least four
// times its size, and a list wanting more than a quarter of slabChunkMax
// gets its own storage.
func TestSlabChunks(t *testing.T) {
	var s slab[int]
	var sizes []int
	for range 4 * slabChunkMax {
		before := s.size
		s.make(1, 1)
		if s.size != before || len(sizes) == 0 {
			sizes = append(sizes, s.size)
		}
	}
	want := []int{}
	for n := slabFirstChunk; n <= slabChunkMax; n *= 2 {
		want = append(want, n)
	}
	for len(want) < len(sizes) {
		want = append(want, slabChunkMax)
	}
	if !slices.Equal(sizes, want) {
		t.Errorf("chunk sizes = %v, want %v", sizes, want)
	}
	free := len(s.free)
	if l := s.make(0, slabChunkMax/4+1); cap(l) != slabChunkMax/4+1 || len(s.free) != free {
		t.Errorf("a list of capacity %d was carved from the chunk", slabChunkMax/4+1)
	}
	var fresh slab[int]
	if l := fresh.make(10, 10); len(l) != 10 || fresh.size != 40 || len(fresh.free) != 30 {
		t.Errorf("a first list of 10 made a chunk of %d with %d left, want 40 with 30", fresh.size, len(fresh.free))
	}
}

// Lists carved from one slab keep their contents when they move to grow,
// and neither slab.append nor a built-in append on one list writes into
// another.
func TestSlabLists(t *testing.T) {
	var s slab[int]
	lists := make([][]int, 50)
	for round := range 40 {
		for i := range lists {
			if round < i%40 {
				lists[i] = s.append(lists[i], i*1000+round)
			}
		}
	}
	if len(lists[8]) != cap(lists[8]) {
		t.Fatalf("list 8 has length %d and capacity %d, want a full list", len(lists[8]), cap(lists[8]))
	}
	grown := append(lists[8], -1) // a built-in append on a full carved list
	grown[0] = -2
	for i, l := range lists {
		n := i % 40
		if len(l) != n {
			t.Fatalf("list %d has %d elements, want %d", i, len(l), n)
		}
		for round, v := range l {
			if v != i*1000+round {
				t.Fatalf("list %d element %d = %d, want %d", i, round, v, i*1000+round)
			}
		}
	}
}

// A reset table and slab hand out zeroed storage from the chunks they
// kept, so refilling them to the same size allocates nothing.
func TestResetReuses(t *testing.T) {
	var tb table[NodeID, int]
	var s slab[int]
	lists := make([][]int, 0, 200)
	fill := func() {
		for i := range 1000 {
			tb.push(i + 1)
		}
		lists = lists[:0]
		for i := range 200 {
			l := s.make(i%50, i%50)
			for j := range l {
				if l[j] != 0 {
					t.Fatalf("list %d element %d = %d after reset, want 0", i, j, l[j])
				}
				l[j] = i + 1
			}
			lists = append(lists, l)
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(5, func() {
		tb.reset()
		s.reset()
		fill()
	}); allocs != 0 {
		t.Errorf("refilling after reset allocated %.0f times", allocs)
	}
	for i := range NodeID(1000) {
		if got := *tb.at(i); got != int(i)+1 {
			t.Fatalf("at(%d) = %d after refill", i, got)
		}
	}
	tb.reset()
	if tb.len() != 0 {
		t.Errorf("reset left len %d", tb.len())
	}
	for _, c := range tb.chunks {
		for _, v := range c {
			if v != 0 {
				t.Fatalf("reset left element %d", v)
			}
		}
	}
}

// The keep rule: a state whose node-indexed table was grown by a run
// more than twice as large as the current one goes back to its pool
// while the table is at most 1<<16 nodes, and is dropped beyond it.
func TestKeepPooled(t *testing.T) {
	grow := func(s *solver, n int) {
		for s.nodes.len() < n {
			s.nodes.push(pnode{})
		}
	}
	keeps := func(s *solver) bool { return KeepPooled(s.nodes.cap(), s.nodes.len()) }
	for _, n := range []int{0, 1, firstChunk, firstChunk + 1, 1000, 1025} {
		var s solver
		grow(&s, n)
		if !keeps(&s) {
			t.Errorf("a table grown to %d nodes (cap %d) by its own solve is dropped", n, s.nodes.cap())
		}
	}
	var s solver
	grow(&s, 16384)
	for _, used := range []int{16384, 1024, 1023, firstChunk, 0} {
		s.nodes.reset()
		grow(&s, used)
		if !keeps(&s) {
			t.Errorf("cap %d, %d nodes used: dropped a table under the floor", s.nodes.cap(), used)
		}
	}
	for _, c := range []struct {
		cap, used int
		keep      bool
	}{
		{1 << 16, 0, true},
		{1 << 16, firstChunk, true},
		{1 << 17, 1 << 15, true},
		{1 << 17, 1<<15 - 1, false},
		{1 << 17, firstChunk, false},
		{1 << 20, 1 << 18, true},
		{1 << 20, 1<<18 - 1, false},
	} {
		if got := KeepPooled(c.cap, c.used); got != c.keep {
			t.Errorf("cap %d, %d nodes used: KeepPooled = %t, want %t", c.cap, c.used, got, c.keep)
		}
	}
}
