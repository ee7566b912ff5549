package race

import (
	"runtime"
	"testing"
)

// put keeps a scratch under the keep rule on both its PAG-node-indexed
// fate table and its access arena, and a kept scratch goes back with at
// most GOMAXPROCS worker slots, however many workers the detection that
// used it ran. A kept scratch has its maps cleared; a dropped one is
// left as it was.
func TestScratchPut(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		name         string
		fate, accs   int // capacities
		used, access int // what the run used of each
		keep         bool
	}{
		{"small", 1 << 10, 1 << 10, 1, 1, true},
		{"at the floor", 1 << 16, 1 << 16, 0, 0, true},
		{"fate table over the floor", 1 << 17, 1 << 10, 1 << 14, 1, false},
		{"access arena over the floor", 1 << 10, 1 << 17, 1, 1 << 14, false},
		{"both used to a quarter", 1 << 17, 1 << 17, 1 << 15, 1 << 15, true},
	} {
		s := scratchPool.New().(*scratch)
		s.fate = make([]int32, c.used, c.fate)
		s.grouped.accs = make([]acc, c.access, c.accs)
		s.fields["f"] = 0
		for range 4*n + 3 {
			s.workers = append(s.workers, worker{seen: map[uint64]struct{}{1: {}}})
		}
		s.put()
		if kept := len(s.fields) == 0; kept != c.keep {
			t.Errorf("%s: kept = %t, want %t", c.name, kept, c.keep)
		}
		if !c.keep {
			continue
		}
		if len(s.workers) != n {
			t.Errorf("%s: put kept %d worker slots, want GOMAXPROCS (%d)", c.name, len(s.workers), n)
		}
		for i, w := range s.workers {
			if len(w.seen) != 0 {
				t.Errorf("%s: worker %d kept %d dedup entries", c.name, i, len(w.seen))
			}
		}
	}
}
