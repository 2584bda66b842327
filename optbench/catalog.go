package main

import (
	"fmt"
	"sync"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/exastream"
	"repro/internal/rdf"
	"repro/internal/siemens"
	"repro/internal/stream"
)

// churnEvery is catalog-live's registration cadence: one extra task is
// submitted, awaited and its predecessor unregistered every tick.
// Ticks stop churnTail before the last send, longer than the slowest
// catalog registration takes under load, so every run churns the same
// tasks and none is still registering when the stream ends.
const (
	churnEvery = 800 * time.Millisecond
	churnTail  = 2 * time.Second
)

// sender is the data-plane surface the System and the bare cluster share.
type sender interface {
	Ingest(streamName string, el stream.Timestamped) error
	Flush() error
}

// round is one deployment's measurements: a set-up and, unless the
// round only sets up, one pass of the input.
type round struct {
	setup  time.Duration
	stream time.Duration // first Ingest to the return of Flush
	tuples int
	mem    memSample
	heap   uint64 // live heap after the stream phase, input excluded

	latencies []float64 // ms
	genLate   []float64 // ms the open-loop generator ran behind schedule
	submitMS  []float64 // churn: SubmitTask to resolved ticket
	alerts    []alert
	digest    string

	health    cluster.Health
	totals    exastream.Stats
	attempted int64
	failed    int64
	problems  []string
}

func (r *round) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// settle charges the runtime's failure counters to the round.
func (r *round) settle(h cluster.Health, t exastream.Stats) {
	r.health, r.totals = h, t
	if h.Dropped > 0 {
		r.failed += h.Dropped
		r.problems = append(r.problems, fmt.Sprintf("%d tuples dropped", h.Dropped))
	}
	if h.Errors > 0 {
		r.fail("%d asynchronous runtime errors", h.Errors)
	}
	if h.Degraded() {
		r.fail("health degraded: %+v", h)
	}
	if t.QueryFailures > 0 {
		r.failed += t.QueryFailures
		r.problems = append(r.problems, fmt.Sprintf("%d failed window executions", t.QueryFailures))
	}
	if t.LateTuples > 0 {
		r.failed += t.LateTuples
		r.problems = append(r.problems, fmt.Sprintf("%d late tuples", t.LateTuples))
	}
}

// alertLog is the steady tasks' AnswerSink: it keeps every answer for
// the digest and every delivery time for the latency.
type alertLog struct {
	mu     sync.Mutex
	alerts []alert
	calls  []sinkCall
}

func newAlertLog() *alertLog {
	return &alertLog{alerts: make([]alert, 0, 1<<15), calls: make([]sinkCall, 0, 1<<12)}
}

func (l *alertLog) sink(task string, end int64, triples []rdf.Triple) {
	now := time.Now()
	l.mu.Lock()
	for _, tr := range triples {
		l.alerts = append(l.alerts, alert{task: task, end: end, subject: tr.S.Value})
	}
	l.calls = append(l.calls, sinkCall{end: end, at: now})
	l.mu.Unlock()
}

// deployCatalog sets up the System and registers the whole catalog; the
// returned duration is setup_s's sample.
func deployCatalog(in *inputs, rec *recorder, r *round, sink optique.AnswerSink) (*optique.System, error) {
	start := time.Now()
	sys, err := optique.NewSystem(optique.Config{Nodes: nodes}, in.tbox, in.maps, in.cat)
	if err != nil {
		return nil, fmt.Errorf("NewSystem: %w", err)
	}
	for _, sc := range siemens.StreamSchemas() {
		if err := sys.DeclareStream(sc); err != nil {
			sys.Close()
			return nil, fmt.Errorf("DeclareStream: %w", err)
		}
	}
	for _, t := range in.tasks {
		sp := rec.begin("System.RegisterTask", -1)
		_, err := sys.RegisterTask(t.ID, t.Query, sink)
		rec.end(sp)
		r.attempted++
		if err != nil {
			sys.Close()
			return nil, fmt.Errorf("RegisterTask %s: %w", t.ID, err)
		}
	}
	r.setup = time.Since(start)
	return sys, nil
}

// replayClosed sends every tuple as fast as backpressure admits and
// returns when Flush does; closedAt[k] is when the tuple that can close
// windows ending at k*endGridMS was sent.
func replayClosed(s sender, in *inputs, rec *recorder, api string, r *round) (closedAt []time.Time) {
	closedAt = make([]time.Time, len(in.closers))
	ingest, flush := api+".Ingest", api+".Flush"
	next, slot := in.closers[0], 0
	start := time.Now()
	for i, el := range in.tuples {
		if i == next {
			closedAt[slot] = time.Now()
			slot++
			next = -1
			if slot < len(in.closers) {
				next = in.closers[slot]
			}
		}
		sp := rec.begin(ingest, -1)
		err := s.Ingest(in.routes[i], el)
		rec.end(sp)
		if err != nil {
			r.fail("Ingest: %v", err)
		}
	}
	sp := rec.begin(flush, -1)
	err := s.Flush()
	rec.end(sp)
	r.stream = time.Since(start)
	if err != nil {
		r.fail("Flush: %v", err)
	}
	r.tuples = len(in.tuples)
	r.attempted += int64(len(in.tuples)) + 1
	return closedAt
}

// replayOpen sends tuple i at start+i/liveRate whatever the system does,
// recording how late each send ran in r.genLate, which the caller sizes
// beforehand; beforeFlush runs after the last send.
func replayOpen(sys *optique.System, in *inputs, rec *recorder, r *round, start time.Time, beforeFlush func()) {
	interval := time.Second / liveRate
	for i, el := range in.tuples {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.genLate = append(r.genLate, float64(time.Since(due))/1e6)
		sp := rec.begin("System.Ingest", -1)
		err := sys.Ingest(in.routes[i], el)
		rec.end(sp)
		if err != nil {
			r.fail("Ingest: %v", err)
		}
	}
	beforeFlush()
	sp := rec.begin("System.Flush", -1)
	err := sys.Flush()
	rec.end(sp)
	r.stream = time.Since(start)
	if err != nil {
		r.fail("Flush: %v", err)
	}
	r.tuples = len(in.tuples)
	r.attempted += int64(len(in.tuples)) + 1
}

// churn submits catalog tasks under fresh ids at a fixed cadence for
// the given number of ticks, awaiting each ticket and unregistering the
// previous task; the last one is unregistered once stop closes.
func churn(sys *optique.System, tasks []siemens.Task, ticks int, start time.Time, stop <-chan struct{}, rec *recorder, r *round) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	prev := ""
	defer func() {
		<-stop
		if prev != "" {
			r.attempted++
			if err := sys.Unregister(prev); err != nil {
				r.fail("Unregister %s: %v", prev, err)
			}
		}
	}()
	for k := 1; k <= ticks; k++ {
		timer.Reset(time.Until(start.Add(time.Duration(k) * churnEvery)))
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		t := tasks[(k-1)%len(tasks)]
		id := fmt.Sprintf("churn%03d_%s", k, t.ID)
		sp := rec.begin("System.SubmitTask", -1)
		t0 := time.Now()
		tk, err := sys.SubmitTask(id, t.Query, nil)
		if err == nil {
			_, err = tk.Wait()
		}
		d := time.Since(t0)
		rec.end(sp)
		r.attempted++
		if err != nil {
			r.fail("SubmitTask %s: %v", id, err)
			continue
		}
		r.submitMS = append(r.submitMS, float64(d)/1e6)
		if prev != "" {
			r.attempted++
			if err := sys.Unregister(prev); err != nil {
				r.fail("Unregister %s: %v", prev, err)
			}
		}
		prev = id
	}
}

// churnTicks is how many churn registrations fit an open loop of n
// tuples.
func churnTicks(n int) int {
	send := time.Duration(n) * time.Second / liveRate
	return max(0, int((send-churnTail)/churnEvery))
}

type catalogMode int

const (
	closedLoop catalogMode = iota
	openLoop               // with registration churn
)

// catalogRound deploys the catalog and, per mode, streams the input
// through it. The stream phase's allocations and GC work are charged to
// the round, and the live heap the deployment added; the input, the
// catalog and the benchmark's buffers, allocated beforehand, are not.
func catalogRound(in *inputs, rec *recorder, mode catalogMode) (*round, error) {
	r := &round{}
	log := newAlertLog()
	if mode == openLoop {
		r.genLate = make([]float64, 0, len(in.tuples))
	}
	base := liveHeap()
	sys, err := deployCatalog(in, rec, r, log.sink)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	m0 := readMem()
	var sentAt func(slot, tuple int) time.Time
	if mode == closedLoop {
		closedAt := replayClosed(sys, in, rec, "System", r)
		sentAt = func(k, _ int) time.Time { return closedAt[k] }
	} else {
		start := time.Now().Add(5 * time.Millisecond)
		cr := &round{} // the churn goroutine's own tally, merged once it exits
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			churn(sys, in.tasks, churnTicks(len(in.tuples)), start, stop, rec, cr)
		}()
		// Stop the churn and wait for it before the final Flush, so no
		// registration races the drain.
		replayOpen(sys, in, rec, r, start, func() { close(stop); <-done })
		r.submitMS = cr.submitMS
		r.attempted += cr.attempted
		r.failed += cr.failed
		r.problems = append(r.problems, cr.problems...)
		interval := time.Second / liveRate
		sentAt = func(_, i int) time.Time { return start.Add(time.Duration(i) * interval) }
	}
	r.mem = readMem().sub(m0)
	if h := liveHeap(); h > base {
		r.heap = h - base
	}

	log.mu.Lock()
	r.alerts = log.alerts
	calls := log.calls
	log.mu.Unlock()
	r.digest = alertDigest(r.alerts)
	if r.latencies, err = in.latencies(calls, sentAt); err != nil {
		r.fail("latency: %v", err)
	}
	r.settle(sys.Health(), sys.Cluster().EngineTotals())
	return r, nil
}
