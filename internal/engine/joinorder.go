package engine

import (
	"strings"

	"repro/internal/relation"
	"repro/internal/sql"
)

// orderJoins is Optimize's first pass. It reorders the leaves of every
// inner, predicate-less nested-loop chain under a filter (the left-deep
// cross product buildBranch emits for a FROM list) along the filter's
// join graph, so that pushIntoJoin finds an equality linking each next
// leaf to the leaves before it and makes a hash join instead of a cross
// product. Unfolding writes atoms in mapping order, e.g.
//
//	FROM a_sensors m0, a_sensors m1, a_sensors m2, b_channels m4
//	WHERE m0.aid = m1.aid AND m0.aid = m4.part_id AND m2.sid = m4.chan_id
//
// where written order joins m2 to m0 ⋈ m1 as a cross product; the join
// graph order is m0, m1, m4, m2.
//
// The order is greedy: the first leaf stays first; each next leaf is the
// first remaining one linked to the joined set by an equality conjunct
// whose two sides both reference columns (m1.kind = 'temperature'
// resolves against every schema and links nothing); when no remaining
// leaf is linked, the first remaining one follows, as written.
//
// Only the FROM order moves. Build puts a projection (or an aggregate)
// above every WHERE filter, and it resolves its columns by name when it
// first executes, so SELECT * keeps its column order. Explicit JOIN ... ON and LEFT JOIN refs and
// subqueries are leaves and move whole. A chain with a window leaf keeps
// its written order: the stream engine plans those itself (cost-based
// lookup-join order over a rebindable window source). BuildUnoptimized
// skips the pass and is its differential oracle.
func orderJoins(p Plan) {
	if f, ok := p.(*FilterPlan); ok {
		if j, ok := f.Input.(*NestedLoopJoinPlan); ok && isCrossJoin(j) {
			// The new chain has the old one's columns in another order;
			// the filter's parent (projection, aggregate or sort) reads
			// them by name, so no schema cached above goes stale.
			f.Input = orderChain(j, f.Pred)
		}
	}
	for _, c := range p.Children() {
		orderJoins(c)
	}
}

// isCrossJoin reports whether j is an inner join without a predicate.
func isCrossJoin(j *NestedLoopJoinPlan) bool { return j.On == nil && !j.LeftOuter }

// crossLeaves flattens a tree of inner cross joins into its leaves, in
// written (left-to-right) order.
func crossLeaves(p Plan, out []Plan) []Plan {
	if j, ok := p.(*NestedLoopJoinPlan); ok && isCrossJoin(j) {
		return crossLeaves(j.Right, crossLeaves(j.Left, out))
	}
	return append(out, p)
}

// orderChain returns the chain rebuilt left-deep in join-graph order,
// or j itself when the order does not change or the chain must keep its
// written order.
func orderChain(j *NestedLoopJoinPlan, pred sql.Expr) Plan {
	leaves := crossLeaves(j, nil)
	if len(leaves) < 3 || !reorderable(leaves) {
		// Two leaves: pushIntoJoin already finds keys in either direction.
		return j
	}
	var links []*sql.BinaryExpr
	for _, c := range SplitConjuncts(pred) {
		if be, ok := c.(*sql.BinaryExpr); ok && be.Op == "=" && hasColumnRef(be.Left) && hasColumnRef(be.Right) {
			links = append(links, be)
		}
	}
	if len(links) == 0 {
		return j
	}

	order := []Plan{leaves[0]}
	joined := leaves[0].Schema()
	rest := leaves[1:]
	moved := false
	for len(rest) > 0 {
		next := 0
		for i, l := range rest {
			if linked(links, joined, l.Schema()) {
				next = i
				break
			}
		}
		moved = moved || next != 0
		order = append(order, rest[next])
		joined = joined.Concat(rest[next].Schema())
		rest = append(rest[:next], rest[next+1:]...)
	}
	if !moved {
		return j
	}
	var out Plan = order[0]
	for _, l := range order[1:] {
		out = NewNestedLoopJoinPlan(out, l, nil, false)
	}
	return out
}

// linked reports whether some link equates an expression over the
// joined columns with one over the candidate leaf's columns: the pair
// ExtractEquiKeys will turn into a hash-join key once the leaf is
// joined.
func linked(links []*sql.BinaryExpr, joined, leaf relation.Schema) bool {
	for _, be := range links {
		if (ResolvesAgainst(be.Left, joined) && ResolvesAgainst(be.Right, leaf)) ||
			(ResolvesAgainst(be.Right, joined) && ResolvesAgainst(be.Left, leaf)) {
			return true
		}
	}
	return false
}

// reorderable reports whether a chain's leaves may move: none reads a
// window, and no column name occurs in two leaves (a name lookup picks
// the first match, which would then depend on the order).
func reorderable(leaves []Plan) bool {
	seen := map[string]bool{}
	for _, l := range leaves {
		if readsWindow(l) {
			return false
		}
		for _, c := range l.Schema().Columns {
			name := strings.ToLower(c.Name)
			if seen[name] {
				return false
			}
			seen[name] = true
		}
	}
	return true
}

// readsWindow reports whether a plan reads a window batch.
func readsWindow(p Plan) bool {
	if _, ok := p.(*WindowSourcePlan); ok {
		return true
	}
	for _, c := range p.Children() {
		if readsWindow(c) {
			return true
		}
	}
	return false
}

// hasColumnRef reports whether e references a column.
func hasColumnRef(e sql.Expr) bool {
	found := false
	walkExpr(e, func(x sql.Expr) {
		if _, ok := x.(*sql.ColumnRef); ok {
			found = true
		}
	})
	return found
}
