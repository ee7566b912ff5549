package pta

// NodeString renders a PAG node as the solver names it.
func NodeString(a *Analysis, id NodeID) string { return a.heap.nodeString(id, a.ctxs) }

// NodePointsTo returns the points-to set of any PAG node.
func NodePointsTo(a *Analysis, id NodeID) *Bits { return &a.nodes.at(id).pts }
