package rwdep

// Cyclic reports whether the graph contains a directed cycle — a set of
// transactions no block order can serialize (e.g. two read-modify-writes
// of the same key).
func (g *Graph) Cyclic() bool { return components(g).ncomp > 0 }
