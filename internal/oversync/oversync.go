// Package oversync implements an over-synchronization analysis — the
// second "beyond race detection" client the paper names for OPA/OSA. A
// lock region is unnecessary when every memory access it guards touches
// only origin-local data: no other origin can conflict, so the
// synchronization costs time without protecting anything. This is exactly
// the question OSA answers (which origins share which locations) that
// classical escape analysis answers too coarsely.
package oversync

import (
	"fmt"
	"sort"

	"o2/internal/ir"
	"o2/internal/osa"
	"o2/internal/pta"
	"o2/internal/shb"
)

// Warning reports one unnecessary lock region.
type Warning struct {
	Pos    ir.Pos
	Fn     string
	Origin pta.OriginID
	// Accesses counts the guarded accesses, all origin-local.
	Accesses int
}

func (w Warning) String() string {
	return fmt.Sprintf("unnecessary synchronization at %s in %s [origin O%d]: %d guarded accesses are origin-local",
		w.Pos, w.Fn, w.Origin, w.Accesses)
}

// Report is the analysis result.
type Report struct {
	Warnings []Warning
	// Regions is the number of lock-region instances examined.
	Regions int
	// UsefulRegions guard at least one origin-shared access.
	UsefulRegions int
}

// Analyze inspects every lock region in the SHB graph and reports regions
// guarding only origin-local accesses.
func Analyze(a *pta.Analysis, sharing *osa.Result, g *shb.Graph) *Report {
	type regionInfo struct {
		pos      ir.Pos
		fn       string
		origin   pta.OriginID
		accesses int
		shared   bool
		empty    bool
	}
	regions := map[int32]*regionInfo{}

	for _, seg := range g.Segs {
		if seg.First < 0 {
			continue
		}
		// Replay the segment's lock structure: an access inside nested
		// regions counts for every enclosing region (the outer lock is
		// useful if anything under it is shared).
		var stack []int32
		for id := seg.First; id <= seg.Last; id++ {
			n := &g.Nodes[id]
			switch n.Kind {
			case shb.NLock:
				// The lock node's Region field is the region it opens.
				regions[n.Region] = &regionInfo{
					pos: g.Instr(id).Pos(), fn: g.Func(id).Name, origin: seg.Origin, empty: true,
				}
				stack = append(stack, n.Region)
			case shb.NUnlock:
				if len(stack) > 0 {
					stack = stack[:len(stack)-1]
				}
			case shb.NRead, shb.NWrite:
				for _, rid := range stack {
					ri := regions[rid]
					if ri == nil {
						continue
					}
					ri.empty = false
					ri.accesses++
					if sharing.IsShared(n.Loc) {
						ri.shared = true
					}
				}
			}
		}
	}

	rep := &Report{}
	ids := make([]int32, 0, len(regions))
	for id := range regions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ri := regions[id]
		rep.Regions++
		if ri.shared {
			rep.UsefulRegions++
			continue
		}
		if ri.empty {
			continue // no accesses at all: trivially flagged elsewhere
		}
		rep.Warnings = append(rep.Warnings, Warning{
			Pos: ri.pos, Fn: ri.fn, Origin: ri.origin, Accesses: ri.accesses,
		})
	}
	return rep
}
