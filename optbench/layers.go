package main

import "time"

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics of a traced run. The System or
// Cluster calls come from the traced round (api names which surface the
// workload drove), the runtime counters from the untraced round, and
// self times and sink tallies from the single-engine composition.
// Layers a workload does not call read 0.
func (rep *report) perLayer(rec *recorder, api string, plain, traced *round, comp *composition, counts regCounts) {
	spans := rec.snapshot()
	lt := selfTimes(spans)
	get := func(name string) *layerTime {
		if l := lt[name]; l != nil {
			return l
		}
		return &layerTime{}
	}
	ms := func(name string) float64 { return float64(get(name).total) / 1e6 }
	perCall := func(name string) float64 { // us per call
		l := get(name)
		return ratio(float64(l.total)/1e3, float64(l.calls))
	}

	rep.add("starql.parse_ms", ms("starql.Parse"), "ms")
	rep.add("starql.translate_ms", ms("starql.Translate"), "ms")
	rep.add("starql.stream_fleet_ms", ms("starql.TranslateFull")-ms("starql.Translate"), "ms")
	rep.add("starql.bindings_ms", ms("starql.EvalBindings"), "ms")
	rep.add("starql.bindings", float64(counts.bindings), "count")
	rep.add("starql.stream_fleet_size", float64(counts.streamFleet), "count")
	rep.add("obda.rewrite_ms", ms("rewrite.PerfectRef"), "ms")
	rep.add("obda.rewrite_cqs", float64(counts.rewriteCQs), "count")
	rep.add("obda.unfold_ms", ms("mapping.Unfold"), "ms")
	rep.add("obda.static_fleet_size", float64(counts.staticFleet), "count")
	rep.add("engine.static_exec_ms", ms("engine.Execute"), "ms")
	rep.add("engine.static_rows", float64(counts.staticRows), "count")

	subP50, _ := percentile(traced.submitMS, 0.5)
	ingest := get(api + ".Ingest")
	inP50, _ := percentile(ingest.durs, 0.5)
	inP99, _ := percentile(ingest.durs, 0.99)
	rep.add("core.register_ms", ms("System.RegisterTask"), "ms")
	rep.add("core.submit_ms.p50", zeroNaN(subP50), "ms")
	rep.add("cluster.ingest_us.p50", inP50/1e3, "us")
	rep.add("cluster.ingest_us.p99", inP99/1e3, "us")
	rep.add("cluster.flush_ms", ms(api+".Flush"), "ms")
	rep.add("cluster.register_ms", ms("Cluster.Register"), "ms")
	rep.add("cluster.dropped", float64(traced.health.Dropped), "count")
	rep.add("cluster.errors", float64(traced.health.Errors), "count")

	t := plain.totals
	engSelf := get("Engine.Ingest").self + get("Engine.Flush").self
	rep.add("exastream.self_ns_per_tuple", ratio(float64(engSelf), float64(comp.tuples)), "ns")
	rep.add("exastream.windows", float64(t.WindowsExecuted), "count")
	rep.add("exastream.rows_scanned_per_tuple", ratio(float64(t.RowsScanned), float64(plain.tuples)), "count")
	rep.add("exastream.wcache_hit_ratio", ratio(float64(t.WCacheHits), float64(t.WCacheHits+t.WCacheMisses)), "ratio")
	rep.add("exastream.plan_cache_hit_ratio", ratio(float64(t.PlanCacheHits), float64(t.PlanCacheHits+t.PlanBuilds)), "ratio")
	rep.add("exastream.late_tuples", float64(t.LateTuples), "count")
	rep.add("exastream.query_failures", float64(t.QueryFailures), "count")

	rep.add("starql.seqbuild_us_per_window", perCall("SequenceBuilder.BuildColumnar"), "us")
	rep.add("starql.having_us_per_window", perCall("CompiledHaving.Eval"), "us")
	rep.add("starql.states_per_window", ratio(float64(comp.states), float64(comp.windows)), "count")
	rep.add("starql.having_evals", float64(comp.evals), "count")
	rep.add("starql.having_match_ratio", ratio(float64(comp.matches), float64(comp.evals)), "ratio")

	rep.add("go.gc_cpu_share", ratio(plain.mem.gcCPU, plain.mem.usedCPU), "ratio")
	rep.add("go.gc_cycles", float64(plain.mem.gcCycles), "count")

	rep.add("error_rate", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	rep.add("alert_latency_samples", float64(len(plain.latencies)), "count")
	lateP99, _ := percentile(plain.genLate, 0.99)
	lateMax, _ := percentile(plain.genLate, 1)
	rep.add("generator_late_p99_ms", zeroNaN(lateP99), "ms")
	rep.add("generator_late_max_ms", zeroNaN(lateMax), "ms")

	// Tracing overhead: the traced round against the untraced one.
	rep.add("trace.spans", float64(len(spans)), "count")
	rep.add("trace.setup_overhead_pct", 100*ratio(float64(traced.setup-plain.setup), float64(plain.setup)), "%")
	if plain.genLate != nil {
		// Open loop: the schedule fixes the stream time, latency moves.
		pl, _ := percentile(plain.latencies, 0.5)
		tl, _ := percentile(traced.latencies, 0.5)
		rep.add("trace.stream_overhead_pct", 100*ratio(tl-pl, pl), "%")
	} else {
		rep.add("trace.stream_overhead_pct", 100*ratio(float64(traced.stream-plain.stream), float64(plain.stream)), "%")
	}

	// The single-engine composition: its wall time and how much of it the
	// layers' self times account for.
	var accounted time.Duration
	for _, name := range []string{"Engine.Ingest", "Engine.Flush", "sink", "SequenceBuilder.BuildColumnar", "CompiledHaving.Eval"} {
		accounted += get(name).self
	}
	rep.add("compose.wall_s", comp.wall.Seconds(), "s")
	rep.add("compose.tuples_per_s", ratio(float64(comp.tuples), comp.wall.Seconds()), "1/s")
	rep.add("compose.accounted_share", ratio(float64(accounted), float64(comp.wall)), "ratio")
	rep.note("composition self time: exastream %.3f s, sequence build %.3f s, HAVING %.3f s, sink rest %.3f s, of %.3f s wall",
		engSelf.Seconds(), get("SequenceBuilder.BuildColumnar").self.Seconds(), get("CompiledHaving.Eval").self.Seconds(),
		get("sink").self.Seconds(), comp.wall.Seconds())
}

func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
