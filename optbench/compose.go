package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/exastream"
	"repro/internal/obda/mapping"
	"repro/internal/obda/rewrite"
	"repro/internal/rdf"
	"repro/internal/relation"
	"repro/internal/siemens"
	"repro/internal/sql"
	"repro/internal/starql"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// The single-engine composition rebuilds a workload's job from each
// layer's public entry points on one exastream.Engine that executes
// windows sequentially, so every layer call can carry a span and the
// spans nest: Engine.Ingest encloses the sink, the sink encloses the
// sequence builder and the compiled HAVING. It is also the job's
// single-threaded baseline.

// registered is one task taken through the registration layers.
type registered struct {
	id       string
	q        *starql.Query
	tl       *starql.Translation // as the runtime registers it
	fleet    []*sql.SelectStmt   // the per-binding stream fleet
	bindings []starql.Binding
	compiled *starql.CompiledHaving
	subjects map[string]bool
}

// regCounts is the work the registration layers did, summed over tasks.
type regCounts struct {
	bindings, streamFleet, rewriteCQs, staticFleet, staticRows int
}

// registerLayers calls, for each task, every layer the registration
// path crosses, one span per call: parse, translate without and with
// the stream fleet, PerfectRef and unfolding of the WHERE clause, the
// static fleet's execution, binding evaluation and HAVING compilation.
func registerLayers(in *inputs, tasks []siemens.Task, rec *recorder) ([]*registered, regCounts, error) {
	var c regCounts
	tr := starql.NewTranslator(in.tbox, in.maps, in.cat)
	var out []*registered
	for _, t := range tasks {
		sp := rec.begin("starql.Parse", -1)
		q, err := starql.Parse(t.Query)
		rec.end(sp)
		if err != nil {
			return nil, c, fmt.Errorf("%s: parse: %w", t.ID, err)
		}
		sp = rec.begin("starql.Translate", -1)
		tl, err := tr.Translate(q, starql.Options{SkipStreamFleet: true})
		rec.end(sp)
		if err != nil {
			return nil, c, fmt.Errorf("%s: translate: %w", t.ID, err)
		}
		sp = rec.begin("starql.TranslateFull", -1)
		full, err := tr.Translate(q, starql.Options{})
		rec.end(sp)
		if err != nil {
			return nil, c, fmt.Errorf("%s: translate with stream fleet: %w", t.ID, err)
		}
		c.streamFleet += len(full.StreamFleet)

		where, err := starql.BGPToCQ(q.Where, q.WhereVars(), q.WhereFilters...)
		if err != nil {
			return nil, c, fmt.Errorf("%s: WHERE: %w", t.ID, err)
		}
		sp = rec.begin("rewrite.PerfectRef", -1)
		ucq, _, err := rewrite.PerfectRef(where, in.tbox, rewrite.Options{})
		rec.end(sp)
		if err != nil {
			return nil, c, fmt.Errorf("%s: rewrite: %w", t.ID, err)
		}
		c.rewriteCQs += len(ucq)
		sp = rec.begin("mapping.Unfold", -1)
		static, _, err := mapping.Unfold(ucq, in.maps, mapping.UnfoldOptions{})
		rec.end(sp)
		if err != nil {
			return nil, c, fmt.Errorf("%s: unfold: %w", t.ID, err)
		}
		c.staticFleet += len(static)
		sp = rec.begin("engine.Execute", -1)
		rows, err := executeStatic(in.cat, static)
		rec.end(sp)
		if err != nil {
			return nil, c, fmt.Errorf("%s: static fleet: %w", t.ID, err)
		}
		c.staticRows += rows

		sp = rec.begin("starql.EvalBindings", -1)
		bindings, err := tr.EvalBindings(tl)
		rec.end(sp)
		if err != nil {
			return nil, c, fmt.Errorf("%s: bindings: %w", t.ID, err)
		}
		c.bindings += len(bindings)
		reg := &registered{id: t.ID, q: q, tl: tl, fleet: full.StreamFleet, bindings: bindings, subjects: map[string]bool{}}
		if q.Having != nil {
			sp = rec.begin("starql.CompileHaving", -1)
			reg.compiled = starql.CompileHaving(q.Having, q.Aggregates)
			rec.end(sp)
		}
		for _, b := range bindings {
			for _, term := range b {
				if term.IsIRI() {
					reg.subjects[term.Value] = true
				}
			}
		}
		out = append(out, reg)
	}
	return out, c, nil
}

// executeStatic plans and runs the static (non-stream) members of an
// unfolded fleet over the catalog and returns the rows they produce.
func executeStatic(cat *relation.Catalog, fleet []*sql.SelectStmt) (int, error) {
	ctx := engine.NewExecContext(cat)
	n := 0
	for _, stmt := range fleet {
		if readsStream(stmt) {
			continue
		}
		plan, err := engine.Build(stmt, engine.CatalogResolver(cat))
		if err != nil {
			return n, err
		}
		rows, err := plan.Execute(ctx)
		if err != nil {
			return n, err
		}
		n += len(rows)
	}
	return n, nil
}

func readsStream(stmt *sql.SelectStmt) bool {
	for _, b := range stmt.Branches() {
		for _, tr := range b.From {
			if tr.IsStream {
				return true
			}
		}
	}
	return false
}

// composition is one single-engine run: the sink tallies and answers.
type composition struct {
	rec *recorder
	cur atomic.Int64 // span of the engine call in progress: the sinks' parent

	mu       sync.Mutex
	windows  int64 // sink calls that built a sequence
	states   int64
	evals    int64
	matches  int64
	alerts   []alert
	problems []string
	rows     rowDigest

	wall   time.Duration
	tuples int
	totals exastream.Stats
}

// catalogSink is core's window sink rebuilt from the starql entry
// points: build the sequence over the window, evaluate the compiled
// HAVING per binding, and emit the CONSTRUCT subjects.
func (c *composition) catalogSink(reg *registered, builder *starql.SequenceBuilder) exastream.Sink {
	subjects := reg.subjects
	if len(subjects) == 0 {
		subjects = nil
	}
	return func(_ string, end int64, _ relation.Schema, rows []relation.Tuple) {
		if len(rows) == 0 {
			return
		}
		sp := c.rec.begin("sink", int(c.cur.Load()))
		defer c.rec.end(sp)
		b := c.rec.begin("SequenceBuilder.BuildColumnar", sp)
		seq, err := builder.BuildColumnar(stream.Batch{End: end, Rows: rows}, subjects)
		c.rec.end(b)
		if err != nil {
			c.problem("%s: sequence: %v", reg.id, err)
			return
		}
		if seq.Len() == 0 {
			return
		}
		var evals, matches int64
		var found []alert
		h := c.rec.begin("CompiledHaving.Eval", sp)
		for _, binding := range reg.bindings {
			if reg.compiled != nil {
				evals++
				ok, err := reg.compiled.Eval(seq, binding)
				if err != nil || !ok {
					continue
				}
				matches++
			}
			found = appendSubjects(found, reg, end, binding)
		}
		c.rec.end(h)
		c.mu.Lock()
		c.windows++
		c.states += int64(seq.Len())
		c.evals += evals
		c.matches += matches
		c.alerts = append(c.alerts, found...)
		c.mu.Unlock()
	}
}

// appendSubjects adds one alert per CONSTRUCT triple the binding
// instantiates, skipping templates it leaves unbound as core does.
func appendSubjects(out []alert, reg *registered, end int64, b starql.Binding) []alert {
	resolve := func(n starql.Node) (rdf.Term, bool) {
		if !n.IsVar() {
			return n.Term, true
		}
		t, ok := b[n.Var]
		return t, ok
	}
	for _, tp := range reg.q.Construct {
		sub, ok := resolve(tp.S)
		if !ok {
			continue
		}
		if _, ok := resolve(tp.P); !ok {
			continue
		}
		if !tp.TypeAtom {
			if pred, _ := resolve(tp.P); !pred.IsIRI() {
				continue
			}
			if !tp.NoObject {
				if _, ok := resolve(tp.O); !ok {
					continue
				}
			}
		}
		out = append(out, alert{task: reg.id, end: end, subject: sub.Value})
	}
	return out
}

func (c *composition) fleetSink(query string, end int64, _ relation.Schema, rows []relation.Tuple) {
	sp := c.rec.begin("sink", int(c.cur.Load()))
	c.rows.add(query, end, rows)
	c.rec.end(sp)
}

// newEngine is a sequential single engine with both streams declared.
func newEngine(in *inputs, opts exastream.Options) (*exastream.Engine, error) {
	opts.Parallelism = 1
	eng := exastream.NewEngine(in.cat, opts)
	for _, sc := range siemens.StreamSchemas() {
		if err := eng.DeclareStream(sc); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// run streams the input through eng, one span per engine call.
func (c *composition) run(in *inputs, eng *exastream.Engine) {
	start := time.Now()
	for i, el := range in.tuples {
		sp := c.rec.begin("Engine.Ingest", -1)
		c.cur.Store(int64(sp))
		err := eng.Ingest(in.routes[i], el)
		c.rec.end(sp)
		if err != nil {
			c.problem("Engine.Ingest: %v", err)
		}
	}
	sp := c.rec.begin("Engine.Flush", -1)
	c.cur.Store(int64(sp))
	err := eng.Flush()
	c.rec.end(sp)
	c.wall = time.Since(start)
	c.tuples = len(in.tuples)
	if err != nil {
		c.problem("Engine.Flush: %v", err)
	}
	c.totals = eng.Stats()
	if c.totals.LateTuples > 0 || c.totals.QueryFailures > 0 {
		c.problem("composition: %d late tuples, %d failed windows", c.totals.LateTuples, c.totals.QueryFailures)
	}
}

func (c *composition) problem(format string, args ...any) {
	c.mu.Lock()
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// composeCatalog runs the whole catalog on one engine: the registration
// layers step by step, then core's runtime query per task with the
// starql sink.
func composeCatalog(in *inputs, rec *recorder) (*composition, regCounts, error) {
	regs, counts, err := registerLayers(in, in.tasks, rec)
	if err != nil {
		return nil, counts, err
	}
	// Core's engines carry a query-lifecycle tracer; so does this one.
	eng, err := newEngine(in, exastream.Options{Tracer: telemetry.NewTracer(0)})
	if err != nil {
		return nil, counts, err
	}
	builders := map[string]*starql.SequenceBuilder{}
	for _, sc := range siemens.StreamSchemas() {
		if builders[sc.Name], err = starql.NewSequenceBuilder(sc, in.maps); err != nil {
			return nil, counts, err
		}
	}
	c := &composition{rec: rec, alerts: make([]alert, 0, 1<<15)}
	for _, reg := range regs {
		name := reg.q.Streams[0].Name
		stmt := sql.NewSelect()
		stmt.Items = []sql.SelectItem{{Star: true}}
		stmt.From = []*sql.TableRef{{
			Table: name, IsStream: true, Alias: "w",
			Window: &sql.WindowSpec{RangeMS: reg.tl.Window.RangeMS, SlideMS: reg.tl.Window.SlideMS},
		}}
		sp := rec.begin("Engine.Register", -1)
		err := eng.Register(reg.id, stmt, reg.tl.Pulse, c.catalogSink(reg, builders[name]))
		rec.end(sp)
		if err != nil {
			return nil, counts, fmt.Errorf("register %s: %w", reg.id, err)
		}
	}
	c.run(in, eng)
	return c, counts, nil
}

// composeFleet registers a translated stream fleet on one engine with
// shared windows and streams the input through it.
func composeFleet(in *inputs, fleet []*sql.SelectStmt, pulse *stream.Pulse, rec *recorder) (*composition, error) {
	eng, err := newEngine(in, exastream.Options{ShareWindows: true})
	if err != nil {
		return nil, err
	}
	c := &composition{rec: rec}
	for i, stmt := range fleet {
		sp := rec.begin("Engine.Register", -1)
		err := eng.Register(fleetQueryID(i), stmt, pulse, c.fleetSink)
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("register %s: %w", fleetQueryID(i), err)
		}
	}
	c.run(in, eng)
	return c, nil
}
