package core

import (
	"sort"
	"testing"

	"repro/internal/relation"
	"repro/internal/siemens"
	"repro/internal/sql"
	"repro/internal/starql"
	"repro/internal/stream"
)

// deployWith is deploy with an explicit Config (streams declared, small
// fleet).
func deployWith(t *testing.T, cfg Config) (*System, *siemens.Generator) {
	t.Helper()
	gen, err := siemens.New(siemens.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, siemens.TBox(), siemens.Mappings(), cat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	for _, sc := range siemens.StreamSchemas() {
		if err := sys.DeclareStream(sc); err != nil {
			t.Fatal(err)
		}
	}
	return sys, gen
}

func sortedAlerts(log *answerLog) []string {
	log.mu.Lock()
	defer log.mu.Unlock()
	out := make([]string, 0, len(log.triples))
	for _, tr := range log.triples {
		out = append(out, tr.S.Value+" "+tr.P.Value+" "+tr.O.Value)
	}
	sort.Strings(out)
	return out
}

// TestCompiledHavingAlertParity replays the Figure 1 workload and
// checks the task's compiled HAVING matcher against the reference
// interpreter on the very same windows: a second raw window query over
// the task's stream and window spec runs on the same cluster, and its
// sink builds each window's sequence and evaluates the HAVING clause
// with starql.EvalHaving per binding. Both must raise the identical,
// non-empty alert set.
func TestCompiledHavingAlertParity(t *testing.T) {
	sys, gen := deployWith(t, Config{Nodes: 1})
	spec, ok := siemens.TaskByID("T01_mon_temperature")
	if !ok {
		t.Fatal("catalog task missing")
	}
	compiled := &answerLog{}
	task, err := sys.RegisterTask(spec.ID, spec.Query, compiled.sink)
	if err != nil {
		t.Fatal(err)
	}
	if task.compiled == nil {
		t.Fatal("task did not compile its HAVING matcher")
	}

	q, tl := task.Query, task.Translation
	streamName := q.Streams[0].Name
	builder := sys.builders[streamName]
	interpreted := &answerLog{}
	oracle := func(_ string, end int64, _ relation.Schema, rows []relation.Tuple) {
		if len(rows) == 0 {
			return
		}
		seq, err := builder.BuildColumnar(stream.Batch{End: end, Rows: rows}, nil)
		if err != nil {
			t.Errorf("window %d: %v", end, err)
			return
		}
		if seq.Len() == 0 {
			return
		}
		for _, binding := range task.Bindings {
			ok, err := starql.EvalHaving(q.Having, seq, binding, q.Aggregates)
			if err != nil || !ok {
				continue
			}
			interpreted.sink(task.ID, end, constructTriples(q, binding))
		}
	}
	stmt := sql.NewSelect()
	stmt.Items = []sql.SelectItem{{Star: true}}
	stmt.From = []*sql.TableRef{{
		Table: streamName, IsStream: true, Alias: "w",
		Window: &sql.WindowSpec{RangeMS: tl.Window.RangeMS, SlideMS: tl.Window.SlideMS},
	}}
	if _, err := sys.Cluster().Register("oracle", stmt, tl.Pulse, oracle); err != nil {
		t.Fatal(err)
	}

	feedDefaultEvents(t, sys, gen, 0, 60_000, 500, gen.SensorsOfTurbine(0))
	want, got := sortedAlerts(interpreted), sortedAlerts(compiled)
	if len(want) == 0 {
		t.Fatal("no alerts raised — the parity check is vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("alert sets differ: %d compiled vs %d interpreted", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("alert %d differs: compiled %q vs interpreted %q", i, got[i], want[i])
		}
	}
}

// TestHavingTelemetry: the HAVING stage reports matcher evaluations,
// matches, compiled-program count, and per-window latency; sequence
// build reports its own per-window latency.
func TestHavingTelemetry(t *testing.T) {
	sys, gen := deployWith(t, Config{Nodes: 1})
	spec, _ := siemens.TaskByID("T01_mon_temperature")
	log := &answerLog{}
	if _, err := sys.RegisterTask(spec.ID, spec.Query, log.sink); err != nil {
		t.Fatal(err)
	}
	feedDefaultEvents(t, sys, gen, 0, 30_000, 500, gen.SensorsOfTurbine(0))

	snap := sys.TelemetrySnapshot()
	if snap.Counters["starql.having.compiled"] != 1 {
		t.Errorf("having.compiled = %d, want 1", snap.Counters["starql.having.compiled"])
	}
	evals := snap.Counters["starql.having.evals"]
	matches := snap.Counters["starql.having.matches"]
	if evals == 0 {
		t.Error("no matcher evaluations counted")
	}
	if matches == 0 || matches > evals {
		t.Errorf("having.matches = %d (evals = %d)", matches, evals)
	}
	h, ok := snap.Histograms["starql.having.window_ns"]
	if !ok || h.Count == 0 {
		t.Errorf("window_ns histogram missing or empty: %+v", h)
	}
	if sb, ok := snap.Histograms["starql.seqbuild.window_ns"]; !ok || sb.Count == 0 {
		t.Errorf("seqbuild.window_ns histogram missing or empty: %+v", sb)
	}
	var alerts int
	log.mu.Lock()
	alerts = len(log.triples)
	log.mu.Unlock()
	if alerts == 0 {
		t.Error("no alerts — counters not exercised meaningfully")
	}
}
