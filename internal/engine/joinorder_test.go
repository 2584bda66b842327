package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/sql"
)

// joinOrderCatalog builds three small tables with int, float and text
// columns. Join columns hold NULLs, and the float column holds both
// zeros (-0.0 and 0.0, which SQL compares equal).
func joinOrderCatalog(rng *rand.Rand) *relation.Catalog {
	cat := relation.NewCatalog()
	floats := []float64{0, math.Copysign(0, -1), 1, 2.5}
	for ti := 0; ti < 3; ti++ {
		tb, _ := cat.Create(fmt.Sprintf("t%d", ti), relation.NewSchema(
			relation.Col("k", relation.TInt),
			relation.Col("j", relation.TInt),
			relation.Col("f", relation.TFloat),
			relation.Col("s", relation.TString)))
		for i := 0; i < 2+rng.Intn(3); i++ {
			row := relation.Tuple{
				relation.Int(int64(rng.Intn(3))),
				relation.Int(int64(rng.Intn(4))),
				relation.Float(floats[rng.Intn(len(floats))]),
				relation.String_(string(rune('a' + rng.Intn(2)))),
			}
			if rng.Intn(5) == 0 {
				row[rng.Intn(3)] = relation.Null
			}
			tb.MustInsert(row)
		}
	}
	return cat
}

// joinOrderLeaf is one FROM item of a random query: the SQL text and the
// aliases whose k, j and f columns the WHERE clause may reference.
type joinOrderLeaf struct {
	sql     string
	aliases []string
}

// randomJoinOrderSQL emits a SELECT over 3–6 FROM items: plain (often
// self-joined) tables, an explicit JOIN ... ON or LEFT JOIN ref, and a
// subquery. The WHERE clause links the items along a random spanning
// tree written in shuffled order (so written order is usually not the
// join-graph order), unless disconnected is set, when some items stay
// unlinked; single-table and non-equality conjuncts ride along.
func randomJoinOrderSQL(rng *rand.Rand, disconnected bool) string {
	n := 3 + rng.Intn(4)
	leaves := make([]joinOrderLeaf, n)
	for i := range leaves {
		a := fmt.Sprintf("x%d", i)
		tbl := fmt.Sprintf("t%d", rng.Intn(3))
		switch rng.Intn(6) {
		case 0:
			b := fmt.Sprintf("y%d", i)
			kind := "JOIN"
			if rng.Intn(2) == 0 {
				kind = "LEFT JOIN"
			}
			leaves[i] = joinOrderLeaf{
				sql:     fmt.Sprintf("%s %s %s t%d %s ON %s.k = %s.k", tbl, a, kind, rng.Intn(3), b, a, b),
				aliases: []string{a, b},
			}
		case 1:
			leaves[i] = joinOrderLeaf{
				sql:     fmt.Sprintf("(SELECT k, j, f FROM %s WHERE j <> %d) AS %s", tbl, rng.Intn(4), a),
				aliases: []string{a},
			}
		default:
			leaves[i] = joinOrderLeaf{sql: tbl + " " + a, aliases: []string{a}}
		}
	}
	col := func(l joinOrderLeaf) string {
		c := []string{"k", "j", "f"}[rng.Intn(3)]
		return l.aliases[rng.Intn(len(l.aliases))] + "." + c
	}
	var conds []string
	for i := 1; i < n; i++ {
		if disconnected && rng.Intn(2) == 0 {
			continue
		}
		conds = append(conds, fmt.Sprintf("%s = %s", col(leaves[i]), col(leaves[rng.Intn(i)])))
	}
	if rng.Intn(2) == 0 {
		conds = append(conds, fmt.Sprintf("%s < %s", col(leaves[rng.Intn(n)]), col(leaves[rng.Intn(n)])))
	}
	if rng.Intn(2) == 0 {
		conds = append(conds, fmt.Sprintf("%s <> %d", col(leaves[rng.Intn(n)]), rng.Intn(3)))
	}
	rng.Shuffle(len(conds), func(a, b int) { conds[a], conds[b] = conds[b], conds[a] })
	rng.Shuffle(n, func(a, b int) { leaves[a], leaves[b] = leaves[b], leaves[a] })

	items := "*"
	if rng.Intn(2) == 0 {
		var cols []string
		for i := 0; i < 3; i++ {
			cols = append(cols, col(leaves[rng.Intn(n)]))
		}
		items = strings.Join(cols, ", ")
	}
	from := make([]string, n)
	for i, l := range leaves {
		from[i] = l.sql
	}
	q := "SELECT " + items + " FROM " + strings.Join(from, ", ")
	if len(conds) > 0 {
		q += " WHERE " + strings.Join(conds, " AND ")
	}
	return q
}

// The join-graph pass moves only the FROM order: on seeded random FROM
// lists, Build and the as-written BuildUnoptimized agree on the column
// order and on the row multiset, and a connected join graph leaves no
// cross product in the optimized plan.
func TestJoinOrderMatchesWrittenOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	reordered := 0
	for trial := 0; trial < 240; trial++ {
		cat := joinOrderCatalog(rng)
		disconnected := trial%4 == 3
		query := randomJoinOrderSQL(rng, disconnected)
		stmt, err := sql.Parse(query)
		if err != nil {
			t.Fatalf("trial %d: generated invalid SQL %q: %v", trial, query, err)
		}
		resolver := CatalogResolver(cat)
		naive, err := BuildUnoptimized(stmt, resolver)
		if err != nil {
			t.Fatalf("trial %d: %q: %v", trial, query, err)
		}
		opt, err := Build(stmt, resolver)
		if err != nil {
			t.Fatalf("trial %d: %q: %v", trial, query, err)
		}
		if got, want := opt.Schema().Names(), naive.Schema().Names(); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("trial %d: %q: columns %v, as written %v", trial, query, got, want)
		}
		rows, err := opt.Execute(NewExecContext(cat))
		if err != nil {
			t.Fatalf("trial %d: %q: %v", trial, query, err)
		}
		want, err := naive.Execute(NewExecContext(cat))
		if err != nil {
			t.Fatalf("trial %d: %q: %v", trial, query, err)
		}
		ex := Explain(opt)
		if !sameMultiset(rows, want) {
			t.Fatalf("trial %d: results differ for %q\noptimized: %v\nas written: %v\nplan:\n%s",
				trial, query, rows, want, ex)
		}
		if !disconnected && strings.Contains(ex, "NestedLoopJoin(true)") {
			t.Fatalf("trial %d: connected join graph kept a cross product: %q\n%s", trial, query, ex)
		}
		if leafOrder(ex) != leafOrder(Explain(naive)) {
			reordered++
		}
	}
	t.Logf("%d of 240 trials reordered", reordered)
	if reordered < 40 {
		t.Errorf("only %d of 240 trials reordered their FROM list; the generator no longer exercises the pass", reordered)
	}
}

// leafOrder lists the aliases of a plan's scans in the order Explain
// prints them.
func leafOrder(ex string) string {
	var out []string
	for _, line := range strings.Split(ex, "\n") {
		if i := strings.Index(line, " AS "); i >= 0 && strings.Contains(line, "Scan(") {
			out = append(out, strings.TrimSuffix(line[i+4:], ")"))
		}
	}
	return strings.Join(out, ",")
}

// Unfolded corr-task members write their atoms in mapping order; the
// pass joins them along the join graph, so the plan has no cross
// product and no join produces more rows than the answer needs.
func TestJoinOrderUnfoldedMember(t *testing.T) {
	cat := relation.NewCatalog()
	as, _ := cat.Create("a_sensors", relation.NewSchema(
		relation.Col("sid", relation.TInt), relation.Col("aid", relation.TInt), relation.Col("kind", relation.TString)))
	bc, _ := cat.Create("b_channels", relation.NewSchema(
		relation.Col("chan_id", relation.TInt), relation.Col("part_id", relation.TInt), relation.Col("chan_type", relation.TString)))
	for sid := int64(0); sid < 40; sid++ {
		as.MustInsert(relation.Tuple{relation.Int(sid), relation.Int(sid / 4), relation.String_("temperature")})
		bc.MustInsert(relation.Tuple{relation.Int(100 + sid), relation.Int(sid / 4), relation.String_("temperature")})
	}
	stmt := sql.MustParse(`SELECT * FROM a_sensors m0, a_sensors m1, a_sensors m2, b_channels m4
		WHERE m1.kind = 'temperature' AND m2.kind = 'temperature' AND m0.aid = m1.aid
		AND m0.aid = m4.part_id AND m2.sid = m4.chan_id`)
	plan, err := Build(stmt, CatalogResolver(cat))
	if err != nil {
		t.Fatal(err)
	}
	ex := Explain(plan)
	if strings.Contains(ex, "NestedLoopJoin") {
		t.Fatalf("unfolded member kept a nested-loop join:\n%s", ex)
	}
	if got, want := leafOrder(ex), "m0,m1,m4,m2"; got != want {
		t.Errorf("leaf order %s, want %s:\n%s", got, want, ex)
	}
	naive, err := BuildUnoptimized(stmt, CatalogResolver(cat))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(plan.Schema().Names(), ","), strings.Join(naive.Schema().Names(), ","); got != want {
		t.Errorf("SELECT * columns %s, as written %s", got, want)
	}
	ctx := NewExecContext(cat)
	rows, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// m2.sid (0..39) never equals m4.chan_id (100..139): the answer is
	// empty. The joins produce m0 ⋈ m1 (160 rows) and m0 ⋈ m1 ⋈ m4 (640),
	// not the 6,400-row cross product of m0 ⋈ m1 with m2.
	if len(rows) != 0 {
		t.Errorf("rows = %d, want 0", len(rows))
	}
	if joined := ctx.Stats.Ops[OpHashJoin].RowsOut; joined != 160+640 {
		t.Errorf("hash joins produced %d rows, want %d", joined, 160+640)
	}
}

// Chains with a window leaf keep their written order: the stream engine
// plans those itself.
func TestJoinOrderLeavesWindowChains(t *testing.T) {
	cat := fixture(t)
	stmt := sql.MustParse("SELECT * FROM S w, sensors s, turbines t WHERE t.tid = s.tid AND w.sid = t.tid")
	src := NewWindowSourcePlan("w", relation.NewSchema(
		relation.Col("sid", relation.TInt), relation.Col("val", relation.TFloat)).Qualify("w"))
	base := CatalogResolver(cat)
	resolve := func(tr *sql.TableRef) (Plan, error) {
		if tr.Table == "S" {
			return src, nil
		}
		return base(tr)
	}
	plan, err := Build(stmt, resolve)
	if err != nil {
		t.Fatal(err)
	}
	ex := Explain(plan)
	sensors, turbines := strings.Index(ex, "Scan(sensors"), strings.Index(ex, "Scan(turbines")
	if sensors < 0 || turbines < 0 || sensors > turbines {
		t.Errorf("window chain reordered:\n%s", ex)
	}
}

// SQL says -0 = 0. The hash join, GROUP BY and DISTINCT key values, and
// each must agree with the comparison a filter makes.
func TestNegativeZeroKeys(t *testing.T) {
	cat := relation.NewCatalog()
	a, _ := cat.Create("a", relation.NewSchema(relation.Col("x", relation.TFloat)))
	b, _ := cat.Create("b", relation.NewSchema(relation.Col("y", relation.TFloat)))
	a.MustInsert(relation.Tuple{relation.Float(math.Copysign(0, -1))})
	b.MustInsert(relation.Tuple{relation.Float(0)})
	ctx := NewExecContext(cat)
	count := func(q string) int {
		t.Helper()
		_, rows, err := Run(ctx, q, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return len(rows)
	}
	hash := "SELECT * FROM a, b WHERE a.x = b.y"
	plan, err := Build(sql.MustParse(hash), CatalogResolver(cat))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Explain(plan), "HashJoin") {
		t.Fatalf("no hash join:\n%s", Explain(plan))
	}
	filtered := count("SELECT * FROM a, b WHERE a.x <= b.y AND a.x >= b.y")
	if filtered != 1 {
		t.Fatalf("filter join = %d rows, want 1", filtered)
	}
	if got := count(hash); got != filtered {
		t.Errorf("hash join = %d rows, filter join %d", got, filtered)
	}

	b.MustInsert(relation.Tuple{relation.Float(math.Copysign(0, -1))})
	if got := count("SELECT y, count(*) FROM b GROUP BY y"); got != 1 {
		t.Errorf("GROUP BY made %d groups of -0.0 and 0.0, want 1", got)
	}
	if got := count("SELECT DISTINCT y FROM b"); got != 1 {
		t.Errorf("DISTINCT kept %d of -0.0 and 0.0, want 1", got)
	}
	if got := count("SELECT * FROM b WHERE y = 0"); got != 2 {
		t.Errorf("filter y = 0 kept %d rows, want 2", got)
	}
}
