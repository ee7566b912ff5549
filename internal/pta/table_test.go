package pta

import "testing"

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
