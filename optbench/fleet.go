package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/exastream"
	"repro/internal/relation"
	"repro/internal/siemens"
	"repro/internal/starql"
)

// fleetTask is the catalog task whose unfolded stream fleet fleet-sql
// registers directly: the paper's Figure 1 query, whose fleet is what
// engineers wrote by hand before OPTIQUE.
const fleetTask = "T01_mon_temperature"

// translateFleet unfolds fleetTask into its low-level stream fleet.
func translateFleet(in *inputs) (*starql.Translation, error) {
	t, ok := siemens.TaskByID(fleetTask)
	if !ok {
		return nil, fmt.Errorf("task %s not in the catalog", fleetTask)
	}
	q, err := starql.Parse(t.Query)
	if err != nil {
		return nil, err
	}
	tl, err := starql.NewTranslator(in.tbox, in.maps, in.cat).Translate(q, starql.Options{})
	if err != nil {
		return nil, err
	}
	if len(tl.StreamFleet) == 0 {
		return nil, fmt.Errorf("%s unfolds to an empty stream fleet", fleetTask)
	}
	return tl, nil
}

// fleetCapacity sizes the sink's delivery log before the timers start:
// T01's fleet has 160 queries, each delivering one window per second.
const fleetCapacity = 200

func fleetQueryID(i int) string { return fmt.Sprintf("T01_%03d", i) }

// fleetSink is every fleet query's sink: a row digest plus each
// delivery's time for the latency.
type fleetSink struct {
	digest rowDigest
	mu     sync.Mutex
	calls  []sinkCall
}

func newFleetSink(capacity int) *fleetSink {
	return &fleetSink{calls: make([]sinkCall, 0, capacity)}
}

func (f *fleetSink) sink(query string, end int64, _ relation.Schema, rows []relation.Tuple) {
	now := time.Now()
	f.digest.add(query, end, rows)
	f.mu.Lock()
	f.calls = append(f.calls, sinkCall{end: end, at: now})
	f.mu.Unlock()
}

// fleetRound deploys the fleet on a fresh cluster with shared windows
// and replays the input closed-loop through it. Set-up includes
// translating the fleet: registering 160 ready-made queries alone takes
// about a millisecond, too little to time steadily.
func fleetRound(in *inputs, rec *recorder) (*round, error) {
	r := &round{}
	fs := newFleetSink(fleetCapacity * len(in.closers))
	base := liveHeap()
	start := time.Now()
	sp := rec.begin("starql.TranslateFleet", -1)
	tl, err := translateFleet(in)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cluster.Options{Nodes: nodes, Engine: exastream.Options{ShareWindows: true}},
		func(int) *relation.Catalog { return in.cat })
	if err != nil {
		return nil, fmt.Errorf("cluster.New: %w", err)
	}
	defer func() {
		cl.Gateway().Close()
		cl.Close()
	}()
	for _, sc := range siemens.StreamSchemas() {
		if err := cl.DeclareStream(sc); err != nil {
			return nil, fmt.Errorf("DeclareStream: %w", err)
		}
	}
	for i, stmt := range tl.StreamFleet {
		sp := rec.begin("Cluster.Register", -1)
		_, err := cl.Register(fleetQueryID(i), stmt, tl.Pulse, fs.sink)
		rec.end(sp)
		r.attempted++
		if err != nil {
			return nil, fmt.Errorf("Register %s: %w", fleetQueryID(i), err)
		}
	}
	r.setup = time.Since(start)

	m0 := readMem()
	closedAt := replayClosed(cl, in, rec, "Cluster", r)
	r.mem = readMem().sub(m0)
	if h := liveHeap(); h > base {
		r.heap = h - base
	}
	fs.mu.Lock()
	calls := fs.calls
	fs.mu.Unlock()
	if r.latencies, err = in.latencies(calls, func(k, _ int) time.Time { return closedAt[k] }); err != nil {
		r.fail("latency: %v", err)
	}
	r.digest = fs.digest.String()
	r.settle(cl.Health(), cl.EngineTotals())
	return r, nil
}
