package engine

import (
	"repro/internal/sql"
)

// Optimize applies the rewrite passes the paper calls out for executing
// unfolded query fleets efficiently (§2: "the queries ... can be very
// inefficient, e.g., they contain many redundant joins and unions"):
//
//  1. join-graph ordering of inner FROM lists (joinorder.go), once,
//  2. duplicate-union-branch elimination,
//  3. predicate pushdown through filters into join inputs,
//  4. cross-product + equality predicate → hash join conversion,
//  5. filter fusion (adjacent filters merge).
//
// Passes 2–5 iterate to a fixpoint bounded by plan depth.
func Optimize(p Plan) Plan {
	orderJoins(p)
	for i := 0; i < 8; i++ {
		var changed bool
		p, changed = rewriteOnce(p)
		if !changed {
			break
		}
	}
	return p
}

func rewriteOnce(p Plan) (Plan, bool) {
	changed := false

	// Rewrite children first (bottom-up).
	switch n := p.(type) {
	case *FilterPlan:
		in, c := rewriteOnce(n.Input)
		if c {
			n.Input = in
			changed = true
		}
	case *ProjectPlan:
		in, c := rewriteOnce(n.Input)
		if c {
			n.Input = in
			changed = true
		}
	case *AliasPlan:
		in, c := rewriteOnce(n.Input)
		if c {
			*n = *NewAliasPlan(in, n.Alias)
			changed = true
		}
	case *SortPlan:
		in, c := rewriteOnce(n.Input)
		if c {
			n.Input = in
			changed = true
		}
	case *DistinctPlan:
		in, c := rewriteOnce(n.Input)
		if c {
			n.Input = in
			changed = true
		}
	case *LimitPlan:
		in, c := rewriteOnce(n.Input)
		if c {
			n.Input = in
			changed = true
		}
	case *AggregatePlan:
		in, c := rewriteOnce(n.Input)
		if c {
			*n = *NewAggregatePlan(in, n.GroupExprs, n.Aggs)
			changed = true
		}
	case *NestedLoopJoinPlan:
		l, c1 := rewriteOnce(n.Left)
		r, c2 := rewriteOnce(n.Right)
		if c1 || c2 {
			*n = *NewNestedLoopJoinPlan(l, r, n.On, n.LeftOuter)
			changed = true
		}
	case *HashJoinPlan:
		l, c1 := rewriteOnce(n.Left)
		r, c2 := rewriteOnce(n.Right)
		if c1 || c2 {
			*n = *NewHashJoinPlan(l, r, n.LeftKeys, n.RightKeys, n.Residual, n.LeftOuter)
			changed = true
		}
	case *UnionPlan:
		for i, in := range n.Inputs {
			ri, c := rewriteOnce(in)
			if c {
				n.Inputs[i] = ri
				changed = true
			}
		}
	}

	// Local rewrites at this node.
	if out, c := rewriteNode(p); c {
		return out, true
	}
	return p, changed
}

func rewriteNode(p Plan) (Plan, bool) {
	switch n := p.(type) {
	case *UnionPlan:
		if out, c := dedupUnion(n); c {
			return out, true
		}
	case *FilterPlan:
		// Fuse adjacent filters.
		if inner, ok := n.Input.(*FilterPlan); ok {
			return &FilterPlan{Input: inner.Input, Pred: sql.AndAll(inner.Pred, n.Pred)}, true
		}
		// Push predicates into join inputs and convert cross joins.
		if j, ok := n.Input.(*NestedLoopJoinPlan); ok && !j.LeftOuter {
			if out, c := pushIntoJoin(n, j); c {
				return out, true
			}
		}
	}
	return p, false
}

// dedupUnion removes syntactically identical union branches (Distinct
// semantics) and collapses a single-branch union. For UNION ALL, branch
// multiplicity matters, so only exact whole-plan duplicates under
// Distinct are removed.
func dedupUnion(u *UnionPlan) (Plan, bool) {
	if !u.Distinct && len(u.Inputs) > 1 {
		return u, false
	}
	seen := map[string]bool{}
	var kept []Plan
	for _, in := range u.Inputs {
		sig := Explain(in)
		if u.Distinct && seen[sig] {
			continue
		}
		seen[sig] = true
		kept = append(kept, in)
	}
	if len(kept) == 1 && u.Distinct {
		return &DistinctPlan{Input: kept[0]}, true
	}
	if len(kept) != len(u.Inputs) {
		return &UnionPlan{Inputs: kept, Distinct: u.Distinct}, true
	}
	return u, false
}

// pushIntoJoin distributes a filter's conjuncts over a cross/nested-loop
// join: conjuncts referencing only one side push into that side; equality
// conjuncts across sides become hash-join keys; the rest stays above.
func pushIntoJoin(f *FilterPlan, j *NestedLoopJoinPlan) (Plan, bool) {
	conjuncts := SplitConjuncts(sql.AndAll(f.Pred, j.On))
	var leftOnly, rightOnly, cross []sql.Expr
	ls, rs := j.Left.Schema(), j.Right.Schema()
	for _, c := range conjuncts {
		switch {
		case ResolvesAgainst(c, ls):
			leftOnly = append(leftOnly, c)
		case ResolvesAgainst(c, rs):
			rightOnly = append(rightOnly, c)
		default:
			cross = append(cross, c)
		}
	}
	if len(leftOnly) == 0 && len(rightOnly) == 0 && len(cross) == len(conjuncts) {
		// Nothing to push; try converting to a hash join anyway.
		lk, rk, residual := ExtractEquiKeys(sql.AndAll(cross...), ls, rs)
		if len(lk) == 0 {
			return f, false
		}
		return NewHashJoinPlan(j.Left, j.Right, lk, rk, residual, false), true
	}
	left := j.Left
	if len(leftOnly) > 0 {
		left = &FilterPlan{Input: left, Pred: sql.AndAll(leftOnly...)}
	}
	right := j.Right
	if len(rightOnly) > 0 {
		right = &FilterPlan{Input: right, Pred: sql.AndAll(rightOnly...)}
	}
	lk, rk, residual := ExtractEquiKeys(sql.AndAll(cross...), ls, rs)
	if len(lk) > 0 {
		return NewHashJoinPlan(left, right, lk, rk, residual, false), true
	}
	var out Plan = NewNestedLoopJoinPlan(left, right, sql.AndAll(cross...), false)
	return out, true
}

// CountOperators returns the number of nodes in a plan tree; benchmarks
// use it to quantify optimisation effects.
func CountOperators(p Plan) int {
	n := 1
	for _, c := range p.Children() {
		n += CountOperators(c)
	}
	return n
}
