package engine_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/siemens"
	"repro/internal/sql"
	"repro/internal/starql"
	"repro/internal/stream"
)

// The Figure 1 fleet harness: the Figure 1 task (T01) translated into
// its low-level stream fleet, each member planned the way the stream
// engine plans a continuous query (stream references resolve to
// rebindable window sources), and 30 s of sensor data cut into the
// windows each member sees. It serves the row-path oracle for the
// vectorized operators and the window-execution ablation benchmark,
// with no stream engine, cluster or STARQL sink in front.

// fleetMember is one planned fleet query.
type fleetMember struct {
	stmt    *sql.SelectStmt
	refs    []*sql.TableRef
	sources []*engine.WindowSourcePlan // parallel to refs
	plan    engine.Plan
}

// fleetExec is one window of one member: a batch per stream reference.
type fleetExec struct {
	m       *fleetMember
	batches []stream.Batch
}

type figure1Fleet struct {
	cat     *relation.Catalog
	schemas map[string]stream.Schema // by lower-cased stream name
	members []*fleetMember
	execs   []fleetExec // in member order, then window-end order
}

func newFigure1Fleet(tb testing.TB) *figure1Fleet {
	tb.Helper()
	gen, err := siemens.New(siemens.SmallConfig())
	if err != nil {
		tb.Fatal(err)
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		tb.Fatal(err)
	}
	task, _ := siemens.TaskByID("T01_mon_temperature")
	q, err := starql.Parse(task.Query)
	if err != nil {
		tb.Fatal(err)
	}
	tl, err := starql.NewTranslator(siemens.TBox(), siemens.Mappings(), cat).Translate(q, starql.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if len(tl.StreamFleet) == 0 {
		tb.Fatal("empty stream fleet")
	}
	f := &figure1Fleet{cat: cat, schemas: map[string]stream.Schema{}}
	for _, sc := range siemens.StreamSchemas() {
		f.schemas[strings.ToLower(sc.Name)] = sc
	}

	// Route the replay into per-stream tuple logs.
	tuples, routes, err := gen.Generate(siemens.StreamConfig{
		FromMS: 0, ToMS: 30_000, StepMS: 500,
		Sensors: gen.SensorsOfTurbine(0), Events: gen.PlantDefaultEvents(0, 30_000), Seed: 9,
	})
	if err != nil {
		tb.Fatal(err)
	}
	logs := map[string][]stream.Timestamped{}
	for i, el := range tuples {
		name := strings.ToLower(siemens.RouteName(routes[i]))
		logs[name] = append(logs[name], el)
	}
	// Windows per (stream, spec), replayed once and shared by every
	// member over that window, as the engine's wCache shares them.
	windows := map[string]map[int64]stream.Batch{}
	windowsOf := func(ref *sql.TableRef) map[int64]stream.Batch {
		name := strings.ToLower(ref.Table)
		spec := stream.WindowSpec{RangeMS: ref.Window.RangeMS, SlideMS: ref.Window.SlideMS}
		key := fmt.Sprintf("%s/%d/%d", name, spec.RangeMS, spec.SlideMS)
		if w, ok := windows[key]; ok {
			return w
		}
		batches, err := stream.Replay(spec, logs[name])
		if err != nil {
			tb.Fatal(err)
		}
		byEnd := make(map[int64]stream.Batch, len(batches))
		for _, b := range batches {
			byEnd[b.End] = b
		}
		windows[key] = byEnd
		return byEnd
	}

	for _, stmt := range tl.StreamFleet {
		m := f.plan(tb, stmt)
		f.members = append(f.members, m)
		first := windowsOf(m.refs[0])
		ends := make([]int64, 0, len(first))
		for end := range first {
			if p := tl.Pulse; p != nil && (end < p.StartMS || (end-p.StartMS)%p.FrequencyMS != 0) {
				continue // not a pulse tick: the engine never runs it
			}
			ends = append(ends, end)
		}
		sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	window:
		for _, end := range ends {
			ex := fleetExec{m: m}
			for _, ref := range m.refs {
				b, ok := windowsOf(ref)[end]
				if !ok {
					continue window
				}
				ex.batches = append(ex.batches, b)
			}
			f.execs = append(f.execs, ex)
		}
	}
	if len(f.execs) == 0 {
		tb.Fatal("the replay produced no fleet windows")
	}
	return f
}

// plan builds a member's physical plan, resolving each stream reference
// to its own window source.
func (f *figure1Fleet) plan(tb testing.TB, stmt *sql.SelectStmt) *fleetMember {
	tb.Helper()
	m := &fleetMember{stmt: stmt}
	base := engine.CatalogResolver(f.cat)
	resolver := func(tr *sql.TableRef) (engine.Plan, error) {
		if !tr.IsStream {
			return base(tr)
		}
		sc, ok := f.schemas[strings.ToLower(tr.Table)]
		if !ok {
			return nil, fmt.Errorf("unknown stream %q", tr.Table)
		}
		src := engine.NewWindowSourcePlan(tr.Name(), sc.Tuple.Qualify(tr.Name()))
		m.refs = append(m.refs, tr)
		m.sources = append(m.sources, src)
		return src, nil
	}
	plan, err := engine.Build(stmt, resolver)
	if err != nil {
		tb.Fatalf("build %s: %v", stmt, err)
	}
	if len(m.refs) == 0 {
		tb.Fatalf("fleet member without a stream reference: %s", stmt)
	}
	m.plan = plan
	return m
}

// run executes one window on the member's plan; with columns set the
// sources also carry the batches' shared transposes, as the stream
// engine binds them.
func (ex fleetExec) run(ctx *engine.ExecContext, columns bool) ([]relation.Tuple, error) {
	for i, src := range ex.m.sources {
		src.Bind(ex.batches[i].Rows)
		if columns {
			src.BindColumns(ex.batches[i].Columns())
		}
	}
	res, err := engine.ExecutePlan(ctx, ex.m.plan)
	if err != nil {
		return nil, err
	}
	return res.Rows(), nil
}

// TestExplainAnalyzeMatchesRowPathOracle runs every Figure 1 fleet
// window twice — on the vectorized operators and on the tuple-at-a-time
// row operators — and requires identical results and identical
// per-operator Calls/RowsOut, the counters EXPLAIN ANALYZE renders.
func TestExplainAnalyzeMatchesRowPathOracle(t *testing.T) {
	f := newFigure1Fleet(t)
	cat := f.cat
	var rowsOut int64
	for i, ex := range f.execs {
		vctx := &engine.ExecContext{Catalog: cat, Funcs: engine.NewFuncRegistry(), Vectorized: true}
		vrows, verr := ex.run(vctx, true)
		rctx := &engine.ExecContext{Catalog: cat, Funcs: engine.NewFuncRegistry()}
		rrows, rerr := ex.run(rctx, false)
		if verr != nil || rerr != nil {
			t.Fatalf("window %d of %s: vec err=%v row err=%v", i, ex.m.stmt, verr, rerr)
		}
		if got, want := canonical(vrows), canonical(rrows); got != want {
			t.Fatalf("window %d of %s: results differ\nvec:\n%s\nrow:\n%s", i, ex.m.stmt, got, want)
		}
		for k := engine.OpKind(0); k < engine.NumOpKinds; k++ {
			v, r := vctx.Stats.Ops[k], rctx.Stats.Ops[k]
			if v.Calls != r.Calls || v.RowsOut != r.RowsOut {
				t.Errorf("window %d of %s: op %s: vec calls=%d rows=%d, row calls=%d rows=%d",
					i, ex.m.stmt, k, v.Calls, v.RowsOut, r.Calls, r.RowsOut)
			}
		}
		rowsOut += int64(len(rrows))
	}
	if rowsOut == 0 {
		t.Fatal("no fleet window produced rows; the oracle is vacuous")
	}
}

// canonical renders a result multiset in a fixed order.
func canonical(rows []relation.Tuple) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// BenchmarkFigure1WindowPlans is the window-execution ablation over the
// Figure 1 fleet: one op is one fleet window executed on its member's
// plan. "vectorized" is the production path (cached plan, columnar
// kernels over the shared transpose); "compiled" runs the same cached
// plans tuple-at-a-time; "interpreted" rebuilds the plan every window
// and tree-walks expressions per row, the pipeline before
// compile-once. The end-to-end vectorized figure, with the stream
// engine in front, is BenchmarkFigure1EndToEnd/windowexec in the root
// package.
func BenchmarkFigure1WindowPlans(b *testing.B) {
	f := newFigure1Fleet(b)
	funcs := engine.NewFuncRegistry()
	b.Run("pipeline=vectorized", func(b *testing.B) {
		benchFleet(b, f, func(ex fleetExec) error {
			_, err := ex.run(&engine.ExecContext{Catalog: f.cat, Funcs: funcs, Vectorized: true}, true)
			return err
		})
	})
	b.Run("pipeline=compiled", func(b *testing.B) {
		benchFleet(b, f, func(ex fleetExec) error {
			_, err := ex.run(&engine.ExecContext{Catalog: f.cat, Funcs: funcs}, false)
			return err
		})
	})
	b.Run("pipeline=interpreted", func(b *testing.B) {
		benchFleet(b, f, func(ex fleetExec) error {
			m := f.plan(b, ex.m.stmt)
			_, err := fleetExec{m: m, batches: ex.batches}.run(
				&engine.ExecContext{Catalog: f.cat, Funcs: funcs, Interpret: true}, false)
			return err
		})
	})
}

func benchFleet(b *testing.B, f *figure1Fleet, exec func(fleetExec) error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exec(f.execs[i%len(f.execs)]); err != nil {
			b.Fatal(err)
		}
	}
}
