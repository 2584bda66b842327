package starql

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/siemens"
	"repro/internal/sql"
)

// catalogJoinWork translates every catalog task over a fleet of the
// given size, runs each task's static fleet, and returns per task the
// bindings and the rows the join operators produced. It fails the test
// when a member whose join graph is connected is planned with a cross
// product.
func catalogJoinWork(t *testing.T, turbines int) (bindings, joinRows map[string]int) {
	t.Helper()
	gen, err := siemens.New(siemens.Config{
		Turbines: turbines, SensorsPerTurbine: 10, AssembliesPerTurbine: 2, SourceASplit: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTranslator(siemens.TBox(), siemens.Mappings(), cat)
	bindings, joinRows = map[string]int{}, map[string]int{}
	for _, task := range siemens.Catalog() {
		tl, err := tr.Translate(MustParse(task.Query), Options{SkipStreamFleet: true})
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		ctx := engine.NewExecContext(cat)
		for _, stmt := range tl.StaticFleet {
			plan, err := engine.Build(stmt, engine.CatalogResolver(cat))
			if err != nil {
				t.Fatalf("%s: %v", task.ID, err)
			}
			if joinGraphConnected(stmt) && strings.Contains(engine.Explain(plan), "NestedLoopJoin(true)") {
				t.Fatalf("%s: connected member planned with a cross product:\n%s\n%s", task.ID, stmt, engine.Explain(plan))
			}
			if _, err := plan.Execute(ctx); err != nil {
				t.Fatalf("%s: %v", task.ID, err)
			}
		}
		for _, k := range []engine.OpKind{engine.OpHashJoin, engine.OpNestedJoin, engine.OpLookupJoin} {
			joinRows[task.ID] += int(ctx.Stats.Ops[k].RowsOut)
		}
		bs, err := tr.EvalBindings(tl)
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		bindings[task.ID] = len(bs)
	}
	return bindings, joinRows
}

// joinGraphConnected reports whether the FROM items of every branch of
// stmt are linked by equality conjuncts between their columns.
func joinGraphConnected(stmt *sql.SelectStmt) bool {
	for _, b := range stmt.Branches() {
		parent := map[string]string{}
		var find func(a string) string
		find = func(a string) string {
			if parent[a] == a {
				return a
			}
			parent[a] = find(parent[a])
			return parent[a]
		}
		for _, tr := range b.From {
			parent[strings.ToLower(tr.Name())] = strings.ToLower(tr.Name())
		}
		for _, c := range engine.SplitConjuncts(b.Where) {
			be, ok := c.(*sql.BinaryExpr)
			if !ok || be.Op != "=" {
				continue
			}
			l, lok := be.Left.(*sql.ColumnRef)
			r, rok := be.Right.(*sql.ColumnRef)
			if lok && rok && l.Table != "" && r.Table != "" {
				parent[find(strings.ToLower(l.Table))] = find(strings.ToLower(r.Table))
			}
		}
		roots := map[string]bool{}
		for a := range parent {
			roots[find(a)] = true
		}
		if len(roots) > 1 {
			return false
		}
	}
	return true
}

// Registration must not pay for cross products: unfolded static fleets
// write their atoms in mapping order, and the planner joins them along
// the join graph. Then the join work per binding stays flat as the fleet
// grows, where a cross product makes it grow with the sensor count.
func TestCatalogStaticFleetsJoinAlongJoinGraph(t *testing.T) {
	small, smallRows := catalogJoinWork(t, 20)
	large, largeRows := catalogJoinWork(t, 80)
	total := 0
	for _, n := range small {
		total += n
	}
	if total != 800 {
		t.Errorf("catalog bindings at 20 turbines = %d, want 800", total)
	}
	for id, n := range small {
		if n == 0 || large[id] == 0 {
			t.Errorf("%s: bindings %d at 20 turbines, %d at 80", id, n, large[id])
			continue
		}
		perSmall := float64(smallRows[id]) / float64(n)
		perLarge := float64(largeRows[id]) / float64(large[id])
		// 4× the sensors may cost at most 4.5× the join rows.
		if float64(largeRows[id]) > 4.5*float64(smallRows[id]) {
			t.Errorf("%s: join rows grew %d → %d (%.1f → %.1f per binding) for 4× the sensors",
				id, smallRows[id], largeRows[id], perSmall, perLarge)
		}
	}
}
