package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/siemens"
)

// Closed-loop workloads repeat whole rounds (deploy, replay, drain) until
// their stream phases add up to the run length, with at least minRounds
// so setup_s is a median of several set-ups.
const (
	minRounds        = 3
	maxCatalogRounds = 8
	maxFleetRounds   = 40
)

func roundsUntil(seconds, maxRounds int, next func() (*round, error)) ([]*round, error) {
	var rs []*round
	var streamed time.Duration
	for len(rs) < minRounds || (streamed < time.Duration(seconds)*time.Second && len(rs) < maxRounds) {
		r, err := next()
		if err != nil {
			return nil, err
		}
		rs = append(rs, r)
		streamed += r.stream
	}
	return rs, nil
}

// endToEnd adds the end-to-end metrics from the rounds that streamed
// and the set-up samples of every round.
func (rep *report) endToEnd(setups []*round, streamed []*round) {
	var setupS, rates, heaps, lat []float64
	var alloc, tuples uint64
	for _, r := range setups {
		setupS = append(setupS, r.setup.Seconds())
	}
	for _, r := range streamed {
		rates = append(rates, float64(r.tuples)/r.stream.Seconds())
		heaps = append(heaps, float64(r.heap)/(1<<20))
		lat = append(lat, r.latencies...)
		alloc += r.mem.allocBytes
		tuples += uint64(r.tuples)
	}
	p50, _ := percentile(lat, 0.5)
	p95, err := tailPercentile(lat, 0.95)
	if err != nil {
		rep.problems = append(rep.problems, "alert latency: "+err.Error())
	}
	rep.add("setup_s", median(setupS), "s")
	rep.add("replay_tuples_per_s", median(rates), "1/s")
	rep.add("alert_latency_p50_ms", p50, "ms")
	rep.add("alert_latency_p95_ms", p95, "ms")
	rep.add("alloc_bytes_per_tuple", float64(alloc)/float64(tuples), "B")
	rep.add("heap_live_mb", median(heaps), "MB")
	rep.note("rounds: %d set-ups, %d streamed; %d latency samples, highest supported percentile p%g",
		len(setups), len(streamed), len(lat), highestSupported(len(lat))*100)
	rep.note("error_rate %g (%d failed of %d attempted)", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
}

// checkDigests requires every round to have produced the same answers.
func (rep *report) checkDigests(what string, rs []*round) {
	ds := make([]string, len(rs))
	for i, r := range rs {
		ds[i] = r.digest
	}
	joined := joinDigests(ds)
	rep.note("%s digest %s", what, joined)
	if len(rs) > 0 && joined != rs[0].digest {
		rep.problems = append(rep.problems, fmt.Sprintf("%s digests differ between rounds: %s", what, joined))
	}
}

// checkRecall requires every planted event to be found by the task
// that targets it: each ramp by T01, the pressure spike by T06 and the
// vibration pair by T12, in a window overlapping the event.
func (rep *report) checkRecall(in *inputs, alerts []alert) {
	const lastRange = 30_000 // the longest catalog window
	want := map[siemens.EventKind]string{
		siemens.EventMonotonicFailure: "T01_mon_temperature",
		siemens.EventThreshold:        "T06_thr_pressure",
		siemens.EventCorrelatedPair:   "T12_corr_vibration",
	}
	found := 0
	for _, ev := range in.events {
		task := want[ev.Kind]
		ok := false
		for _, a := range alerts {
			if a.task != task || a.end <= ev.StartMS || a.end > ev.EndMS+lastRange {
				continue
			}
			if a.subject == siemens.SensorIRI(ev.SensorID) || (ev.PairID != 0 && a.subject == siemens.SensorIRI(ev.PairID)) {
				ok = true
				break
			}
		}
		if ok {
			found++
		} else {
			rep.problems = append(rep.problems, fmt.Sprintf("planted event %+v not found by %s", ev, task))
		}
	}
	rep.note("planted-event recall %d/%d", found, len(in.events))
}

func runCatalogReplay(in *inputs, seconds int, trace bool) (*report, error) {
	if trace {
		return tracedCatalog(in, closedLoop)
	}
	rep := &report{}
	rs, err := roundsUntil(seconds, maxCatalogRounds, func() (*round, error) { return catalogRound(in, nil, closedLoop) })
	if err != nil {
		return nil, err
	}
	rep.absorb(rs...)
	rep.checkDigests("alert", rs)
	rep.checkRecall(in, rs[0].alerts)
	rep.endToEnd(rs, rs)
	return rep, nil
}

// liveRounds is how many open-loop rounds catalog-live pools: alert
// latency varies more between deployments than within one.
const liveRounds = 3

// runCatalogLive measures open-loop rounds with registration churn,
// each on a fresh deployment. One more deployment replays closed-loop
// first to give the reference answers every open loop must reproduce.
func runCatalogLive(in *inputs, seconds int, trace bool) (*report, error) {
	if trace {
		return tracedCatalog(in, openLoop)
	}
	rep := &report{}
	ref, err := catalogRound(in, nil, closedLoop)
	if err != nil {
		return nil, err
	}
	all := []*round{ref}
	var lives []*round
	for i := 0; i < liveRounds; i++ {
		live, err := catalogRound(in, nil, openLoop)
		if err != nil {
			return nil, err
		}
		all = append(all, live)
		lives = append(lives, live)
	}
	rep.absorb(all...)
	rep.checkDigests("alert (closed-loop reference, open loops)", all)
	rep.checkRecall(in, lives[0].alerts)
	rep.liveNotes(lives)
	rep.endToEnd(all, lives)
	return rep, nil
}

func (rep *report) liveNotes(lives []*round) {
	var late, submit []float64
	for _, r := range lives {
		late = append(late, r.genLate...)
		submit = append(submit, r.submitMS...)
	}
	lateP99, _ := percentile(late, 0.99)
	lateMax, _ := percentile(late, 1)
	subP50, _ := percentile(submit, 0.5)
	rep.note("generator ran late by p99 %.3f ms, max %.3f ms over %d sends at %d tuples/s",
		lateP99, lateMax, len(late), liveRate)
	rep.note("churn: %d registrations, SubmitTask to ticket p50 %.1f ms", len(submit), subP50)
}

func runFleetSQL(in *inputs, seconds int, trace bool) (*report, error) {
	if trace {
		return tracedFleet(in)
	}
	rep := &report{}
	rs, err := roundsUntil(seconds, maxFleetRounds, func() (*round, error) { return fleetRound(in, nil) })
	if err != nil {
		return nil, err
	}
	rep.absorb(rs...)
	rep.checkDigests("row", rs)
	// The reference: the same fleet on one sequential engine, no cluster.
	tl, err := translateFleet(in)
	if err != nil {
		return nil, err
	}
	ref, err := composeFleet(in, tl.StreamFleet, tl.Pulse, nil)
	if err != nil {
		return nil, err
	}
	rep.problems = append(rep.problems, ref.problems...)
	if d := ref.rows.String(); d != rs[0].digest {
		rep.problems = append(rep.problems, fmt.Sprintf("cluster rows %s differ from the single-engine reference %s", rs[0].digest, d))
	}
	rep.note("fleet: %d queries from %s", len(tl.StreamFleet), fleetTask)
	rep.endToEnd(rs, rs)
	return rep, nil
}

// tracedCatalog is the traced run of a catalog workload: an untraced
// round and a traced round back to back, whose gap is the tracing
// overhead, then the single-engine composition of the same job.
func tracedCatalog(in *inputs, mode catalogMode) (*report, error) {
	rep := &report{}
	rec := newRecorder(fmt.Sprintf("%s-%d-%d", modeName(mode), in.seed, time.Now().UnixNano()), 3*len(in.tuples))
	plain, err := catalogRound(in, nil, mode)
	if err != nil {
		return nil, err
	}
	traced, err := catalogRound(in, rec, mode)
	if err != nil {
		return nil, err
	}
	comp, counts, err := composeCatalog(in, rec)
	if err != nil {
		return nil, err
	}
	rep.absorb(plain, traced)
	rep.problems = append(rep.problems, comp.problems...)
	compDigest := alertDigest(comp.alerts)
	rep.checkDigests("alert (untraced, traced)", []*round{plain, traced})
	if compDigest != traced.digest {
		rep.problems = append(rep.problems, fmt.Sprintf("single-engine composition digest %s differs from the System's %s", compDigest, traced.digest))
	}
	rep.checkRecall(in, traced.alerts)
	if mode == openLoop {
		rep.liveNotes([]*round{plain})
	}
	rep.perLayer(rec, "System", plain, traced, comp, counts)
	return rep, rep.writeSpans(rec, modeName(mode), in.seed)
}

func tracedFleet(in *inputs) (*report, error) {
	rep := &report{}
	rec := newRecorder(fmt.Sprintf("fleet-sql-%d-%d", in.seed, time.Now().UnixNano()), 3*len(in.tuples))
	plain, err := fleetRound(in, nil)
	if err != nil {
		return nil, err
	}
	traced, err := fleetRound(in, rec)
	if err != nil {
		return nil, err
	}
	task, _ := siemens.TaskByID(fleetTask)
	regs, counts, err := registerLayers(in, []siemens.Task{task}, rec)
	if err != nil {
		return nil, err
	}
	comp, err := composeFleet(in, regs[0].fleet, regs[0].tl.Pulse, rec)
	if err != nil {
		return nil, err
	}
	rep.absorb(plain, traced)
	rep.problems = append(rep.problems, comp.problems...)
	rep.checkDigests("row (untraced, traced)", []*round{plain, traced})
	if d := comp.rows.String(); d != traced.digest {
		rep.problems = append(rep.problems, fmt.Sprintf("single-engine composition rows %s differ from the cluster's %s", d, traced.digest))
	}
	rep.perLayer(rec, "Cluster", plain, traced, comp, counts)
	return rep, rep.writeSpans(rec, "fleet-sql", in.seed)
}

func modeName(m catalogMode) string {
	if m == openLoop {
		return "catalog-live"
	}
	return "catalog-replay"
}

func (rep *report) writeSpans(rec *recorder, workload string, seed int64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	if err := rec.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.note("spans written to %s", path)
	return nil
}
