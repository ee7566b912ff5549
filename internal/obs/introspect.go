package obs

import "sort"

// IntrospectionSchema versions the Introspection JSON layout. Bump it on
// any field rename or semantic change; consumers (CI, the bench gate,
// dashboards) key on it independently of the enclosing RunStats schema.
const IntrospectionSchema = 1

// IntrospectionTopK is the number of costliest origins reported in the
// Introspection section.
const IntrospectionTopK = 10

// SizeBuckets are power-of-two histogram bounds for size distributions
// (points-to set sizes, lockset sizes, segment fan-out, pairs per field)
// — quantities whose interesting variation is multiplicative, not
// additive.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// OriginCost attributes pipeline cost to one origin. The count fields
// are exact and deterministic (identical across runs and worker counts);
// the *ShareNS and ArenaBytes fields are proportional wall-time/memory
// attributions derived from the counts and the measured phase times, and
// are stripped by Deterministic like every other timing.
type OriginCost struct {
	ID     int    `json:"id"`
	Origin string `json:"origin"` // deterministic label, e.g. "O2(go entry@site1)"

	CGNodes   int64            `json:"cg_nodes,omitempty"` // pta call-graph contexts rooted in this origin
	Accesses  int64            `json:"accesses,omitempty"` // shared accesses executed by this origin
	Writes    int64            `json:"writes,omitempty"`
	Segments  int64            `json:"segments,omitempty"` // SHB segments owned by this origin
	SHBNodes  int64            `json:"shb_nodes,omitempty"`
	SHBEdges  int64            `json:"shb_edges,omitempty"` // out-edges from this origin's segments
	NodeKinds map[string]int64 `json:"shb_nodes_by_kind,omitempty"`
	Pairs     int64            `json:"pairs,omitempty"`      // candidate pairs involving this origin
	HBQueries int64            `json:"hb_queries,omitempty"` // happens-before queries for those pairs
	Races     int64            `json:"races,omitempty"`

	// Score is the deterministic cost rank used to pick the top K:
	// pairs + SHB nodes + SHB edges + CG nodes + accesses, so origins
	// that dominate either the graph or the pairwise phase float to the
	// top. Ties break on the smaller ID.
	Score int64 `json:"score"`

	// Proportional wall/byte attributions (run-dependent, stripped by
	// Deterministic): each phase's measured cost scaled by this origin's
	// share of that phase's driving count.
	PTAShareNS    int64 `json:"pta_share_ns,omitempty"`
	SHBShareNS    int64 `json:"shb_share_ns,omitempty"`
	DetectShareNS int64 `json:"detect_share_ns,omitempty"`
	ArenaBytes    int64 `json:"arena_bytes,omitempty"`
}

// Introspection is the versioned per-origin cost-attribution section of
// RunStats: the top-K costliest origins plus the pipeline-wide totals
// their shares are computed against.
type Introspection struct {
	Schema  int          `json:"schema"`
	Origins int          `json:"origins"` // total origins in the program
	TopK    []OriginCost `json:"top_k,omitempty"`

	TotalPairs int64 `json:"total_pairs,omitempty"`
	// Reach-cache totals are scheduling-dependent above one worker
	// (single-flight frontier traversals), so Deterministic strips them.
	ReachHits   int64 `json:"reach_hits,omitempty"`
	ReachMisses int64 `json:"reach_misses,omitempty"`

	// Run-dependent totals, stripped by Deterministic.
	PTAWallNS    int64 `json:"pta_wall_ns,omitempty"`
	SHBWallNS    int64 `json:"shb_wall_ns,omitempty"`
	DetectWallNS int64 `json:"detect_wall_ns,omitempty"`
	ArenaBytes   int64 `json:"arena_bytes,omitempty"`
}

// RankOrigins sorts costs by Score descending (ties on ascending ID) and
// truncates to IntrospectionTopK. The input slice is sorted in place and
// the truncated prefix returned.
func RankOrigins(costs []OriginCost) []OriginCost {
	for i := range costs {
		c := &costs[i]
		c.Score = c.Pairs + c.SHBNodes + c.SHBEdges + c.CGNodes + c.Accesses
	}
	sort.SliceStable(costs, func(i, j int) bool {
		if costs[i].Score != costs[j].Score {
			return costs[i].Score > costs[j].Score
		}
		return costs[i].ID < costs[j].ID
	})
	if len(costs) > IntrospectionTopK {
		costs = costs[:IntrospectionTopK]
	}
	return costs
}

// Deterministic returns a copy with every run-dependent value stripped:
// the wall-time totals and shares and the byte attributions are zeroed
// (and, being omitempty, vanish from the JSON), leaving only exact
// counts. Two runs of the same workload produce byte-identical
// deterministic projections at any worker count.
func (in *Introspection) Deterministic() *Introspection {
	if in == nil {
		return nil
	}
	out := *in
	out.PTAWallNS, out.SHBWallNS, out.DetectWallNS, out.ArenaBytes = 0, 0, 0, 0
	out.ReachHits, out.ReachMisses = 0, 0
	out.TopK = append([]OriginCost(nil), in.TopK...)
	for i := range out.TopK {
		c := &out.TopK[i]
		c.PTAShareNS, c.SHBShareNS, c.DetectShareNS, c.ArenaBytes = 0, 0, 0, 0
	}
	return &out
}
