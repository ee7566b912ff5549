package lockset

import (
	"sync"
	"testing"
)

// TestStatsConcurrentReads hammers Intersects from many goroutines —
// including one still interning new sets through Canon — while another
// goroutine continuously polls Stats, the pattern the bench harness and
// obs snapshots use while detection workers run. The lock-free query path
// reads the atomically published view, so `go test -race` must stay
// silent even with Canon appending concurrently.
func TestStatsConcurrentReads(t *testing.T) {
	tb := NewTable()
	ids := make([]ID, 0, 16)
	for i := 0; i < 16; i++ {
		ids = append(ids, tb.Canon([]uint32{uint32(i), uint32(i + 1), uint32(2 * i)}))
	}

	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := tb.Stats()
				if s.Sets < 17 {
					t.Error("lost a Stats snapshot")
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // keep interning while queries run
		defer wg.Done()
		for i := 100; i < 300; i++ {
			tb.Canon([]uint32{uint32(i), uint32(i + 1)})
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				a := ids[(i+w)%len(ids)]
				b := ids[(i*7+w*3)%len(ids)]
				tb.Intersects(a, b)
				tb.Set(a)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()

	// 16 + 200 distinct sets, plus the empty one.
	if s := tb.Stats(); s.Sets != 1+16+200 {
		t.Fatalf("sets = %d, want 217", s.Sets)
	}
}
