package o2

import (
	"fmt"

	"o2/internal/obs"
	"o2/internal/pta"
	"o2/internal/race"
)

// This file assembles the RunStats Introspection section: per-origin
// cost attribution computed after the pipeline settles. The exact counts
// (call-graph nodes, SHB nodes/edges per kind, shared accesses,
// candidate pairs, races) come from the solved stages; wall-time and
// arena-byte attributions are proportional shares of the measured phase
// costs and are stripped by the deterministic projection. The top-K
// ranking is fully determined by the counts, so two runs of the same
// program produce byte-identical projections at any worker count.

// buildIntrospection aggregates per-origin costs from a finished Result.
// attr may be nil (no detection attribution collected); the pair/race
// fields are then zero.
func buildIntrospection(res *Result, attr *race.Attribution) *obs.Introspection {
	a := res.Analysis
	n := a.Origins.Len()
	in := &obs.Introspection{Schema: obs.IntrospectionSchema, Origins: n}
	if n == 0 {
		return in
	}

	costs := make([]obs.OriginCost, n)
	cg := a.OriginCGNodes()
	gc := res.Graph.CountByOrigin(n)
	var totalCG, totalNodes int64
	for i := range costs {
		c := &costs[i]
		c.ID = i
		c.Origin = a.Origins.Get(pta.OriginID(i)).String()
		c.CGNodes = cg[i]
		c.Segments = gc[i].Segments
		c.SHBNodes = gc[i].Nodes
		c.SHBEdges = gc[i].Edges
		c.NodeKinds = gc[i].ByKind
		totalCG += cg[i]
		totalNodes += gc[i].Nodes
	}
	for i, c := range res.Sharing.ByOrigin {
		costs[i].Accesses, costs[i].Writes = c.Accesses, c.Writes
	}
	var pairSum int64
	if attr != nil {
		for i := range costs {
			costs[i].Pairs = attr.Pairs[i]
			costs[i].HBQueries = attr.HBQueries[i]
			costs[i].Races = attr.Races[i]
			pairSum += attr.Pairs[i]
		}
	}

	in.TotalPairs = res.Report.PairsChecked
	in.PTAWallNS = int64(res.PTATime)
	in.SHBWallNS = int64(res.SHBTime)
	in.DetectWallNS = int64(res.DetectTime)
	in.ArenaBytes = res.Graph.MemBytes()

	// Proportional wall/byte shares: each phase's measured cost scaled by
	// the origin's fraction of the count that drives that phase (CG nodes
	// for pta, SHB nodes for shb and the graph arena, examined pairs for
	// detect). pairSum double-counts cross-origin pairs by construction,
	// which is the right denominator for per-origin shares.
	for i := range costs {
		c := &costs[i]
		if totalCG > 0 {
			c.PTAShareNS = in.PTAWallNS * c.CGNodes / totalCG
		}
		if totalNodes > 0 {
			c.SHBShareNS = in.SHBWallNS * c.SHBNodes / totalNodes
			c.ArenaBytes = in.ArenaBytes * c.SHBNodes / totalNodes
		}
		if pairSum > 0 {
			c.DetectShareNS = in.DetectWallNS * c.Pairs / pairSum
		}
	}
	in.TopK = obs.RankOrigins(costs)
	return in
}

// publishIntrospection mirrors the section's headline numbers into the
// registry as Prometheus-visible series: the origin count, the reach
// cache totals, and per-origin pairs/SHB-node/score gauges for the top-K
// (deterministic counts only — times stay in the JSON section, where the
// deterministic projection strips them).
func publishIntrospection(reg *obs.Registry, in *obs.Introspection) {
	if reg == nil || in == nil {
		return
	}
	in.ReachHits = reg.Counter("shb.reach_hits").Load()
	in.ReachMisses = reg.Counter("shb.reach_misses").Load()
	reg.SetGauge("introspect.origins", int64(in.Origins))
	for _, c := range in.TopK {
		prefix := fmt.Sprintf("introspect.o%d.", c.ID)
		reg.SetGauge(prefix+"pairs", c.Pairs)
		reg.SetGauge(prefix+"shb_nodes", c.SHBNodes)
		reg.SetGauge(prefix+"score", c.Score)
	}
}
