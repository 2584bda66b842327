package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/rdf"
	"repro/internal/relation"
	"repro/internal/siemens"
	"repro/internal/stream"
)

// TestNestedQueries chains two STARQL tasks: the Figure 1 monotonic-
// increase detector feeds a second query that watches the detector's
// output stream — the paper's "employ the result of one query as input
// when constructing another query".
func TestNestedQueries(t *testing.T) {
	sys, gen := deploy(t, 1)

	// Producer: the catalog's Figure 1 task; its output stream carries
	// out:MonInc alerts.
	producer, _ := siemens.TaskByID("T01_mon_temperature")
	outClass := siemens.OutNS + "MonInc"
	outStream, err := sys.EnableOutputStream("T01_mon_temperature", []string{outClass})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterTask(producer.ID, producer.Query, nil); err != nil {
		t.Fatal(err)
	}

	// Consumer: escalate when a MonInc alert appears in the derived
	// stream. The WHERE still binds sensors from the static data; the
	// HAVING checks the derived alert flag.
	consumer := `
PREFIX sie: <http://siemens.com/ontology#>
PREFIX out: <http://siemens.com/out#>
CREATE STREAM escalation AS
CONSTRUCT GRAPH NOW { ?s rdf:type out:Escalated }
FROM STREAM ` + outStream + ` [NOW-"PT30S", NOW]->"PT5S",
STATIC DATA <http://x/static>, ONTOLOGY <http://x/tbox>
WHERE { ?a a sie:Assembly. ?s a sie:Sensor. ?a sie:inAssembly ?s. }
SEQUENCE BY StdSeq AS seq
HAVING THRESHOLD.ABOVE(?s, out:MonInc_flag, 0)
`
	var escalations int64
	escalated := map[string]bool{}
	if _, err := sys.RegisterTask("escalate", consumer,
		func(_ string, _ int64, ts []rdf.Triple) {
			atomic.AddInt64(&escalations, int64(len(ts)))
			for _, tr := range ts {
				escalated[tr.S.Value] = true
			}
		}); err != nil {
		t.Fatal(err)
	}

	events := feedDefaultEvents(t, sys, gen, 0, 60_000, 500, gen.SensorsOfTurbine(0))
	var rampSensor int64
	for _, e := range events {
		if e.Kind == siemens.EventMonotonicFailure && e.SensorID <= int64(gen.Config().SensorsPerTurbine) {
			rampSensor = e.SensorID
		}
	}
	if atomic.LoadInt64(&escalations) == 0 {
		t.Fatal("no escalations from the nested query")
	}
	if !escalated[siemens.SensorIRI(rampSensor)] {
		t.Fatalf("ramp sensor %d not escalated: %v", rampSensor, escalated)
	}
}

// TestEnableOutputStreamValidation covers error paths.
func TestEnableOutputStreamValidation(t *testing.T) {
	sys, _ := deploy(t, 1)
	if _, err := sys.EnableOutputStream("x", []string{"http://c#A"}); err != nil {
		t.Fatal(err)
	}
	// Enabling the same output twice fails on the duplicate stream.
	if _, err := sys.EnableOutputStream("x", []string{"http://c#A"}); err == nil {
		t.Error("duplicate output stream accepted")
	}
}

// flushChain deploys a derived-task chain of the given depth: level k
// watches level k-1's output stream and re-emits its alerts one hop
// further. It feeds 5 s of alerts into level 0 and returns the system
// and a counter of alert batches reaching the last level.
func flushChain(t *testing.T, depth int) (*System, *int64) {
	t.Helper()
	sys, _ := deploy(t, 1)
	class := func(k int) string { return fmt.Sprintf("%sL%d", siemens.OutNS, k) }
	prev, err := sys.EnableOutputStream("lvl0", []string{class(0)})
	if err != nil {
		t.Fatal(err)
	}
	last := new(int64)
	for k := 1; k <= depth; k++ {
		out, err := sys.EnableOutputStream(fmt.Sprintf("lvl%d", k), []string{class(k)})
		if err != nil {
			t.Fatal(err)
		}
		task := fmt.Sprintf(`
PREFIX sie: <http://siemens.com/ontology#>
CREATE STREAM lvl%d AS
CONSTRUCT GRAPH NOW { ?s rdf:type <%s> }
FROM STREAM %s [NOW-"PT1S", NOW]->"PT1S",
STATIC DATA <http://x/static>, ONTOLOGY <http://x/tbox>
WHERE { ?s a sie:Sensor. }
SEQUENCE BY StdSeq AS seq
HAVING THRESHOLD.ABOVE(?s, <%s_flag>, 0)
`, k, class(k), prev, class(k-1))
		var sink AnswerSink
		if k == depth {
			sink = func(string, int64, []rdf.Triple) { atomic.AddInt64(last, 1) }
		}
		if _, err := sys.RegisterTask(fmt.Sprintf("lvl%d", k), task, sink); err != nil {
			t.Fatal(err)
		}
		prev = out
	}
	subj := relation.String_(siemens.SensorIRI(1))
	for ts := int64(0); ts <= 5_000; ts += 500 {
		el := stream.Timestamped{TS: ts, Row: relation.Tuple{subj, relation.Time(ts), relation.Int(1)}}
		if err := sys.Ingest("out_lvl0", el); err != nil {
			t.Fatal(err)
		}
	}
	return sys, last
}

// TestFlushChainDeeperThanRoundCapIsTypedError: each flush round
// carries the final window's alerts one hop down a derived-task chain,
// so a chain deeper than the round cap cannot drain in one Flush, which
// must say so with ErrFlushNoFixpoint instead of returning the last
// round's nil. A second Flush resumes the drain and reaches the end of
// the chain; a chain within the cap drains in one call.
func TestFlushChainDeeperThanRoundCapIsTypedError(t *testing.T) {
	sys, last := flushChain(t, 2)
	if err := sys.Flush(); err != nil || atomic.LoadInt64(last) == 0 {
		t.Fatalf("2-deep chain: Flush = %v, %d alert batches at the last level; want nil and > 0",
			err, atomic.LoadInt64(last))
	}
	const depth = flushRounds + 3
	sys, last = flushChain(t, depth)
	if err := sys.Flush(); !errors.Is(err, ErrFlushNoFixpoint) {
		t.Fatalf("Flush over a %d-deep chain = %v, want ErrFlushNoFixpoint", depth, err)
	}
	if err := sys.Flush(); err != nil {
		t.Fatalf("second Flush over a %d-deep chain = %v, want the drain to finish", depth, err)
	}
	if atomic.LoadInt64(last) == 0 {
		t.Error("alerts never reached the last level; the chain is not exercised")
	}
}
