package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/obda/mapping"
	"repro/internal/ontology"
	"repro/internal/relation"
	"repro/internal/siemens"
	"repro/internal/stream"
)

// The deployment: the 20-turbine x 10-sensor fleet of demo scenario S2
// (200 sensors, half in each source schema), on two nodes.
const (
	turbines             = 20
	sensorsPerTurbine    = 10
	assembliesPerTurbine = 2
	nodes                = 2
	stepMS               = 500

	// liveRate is catalog-live's constant send rate, about a third of
	// the closed-loop replay rate measured on a 2-core host.
	liveRate = 10_000
	// The input spans seconds*liveRate tuples, so the open loop sends for
	// exactly the run length; 200 sensors every 500 ms is 400 tuples per
	// event-time second.
	tuplesPerEventSecond = turbines * sensorsPerTurbine * 1000 / stepMS

	// endGridMS: every catalog task and T01's fleet slide by a multiple
	// of 1 s from pulse start 0, so every window ends on this grid.
	endGridMS = 1000
)

// inputs is everything generated before any timer starts: the static
// deployment assets and the seeded measurement stream.
type inputs struct {
	seed  int64
	tbox  *ontology.TBox
	maps  *mapping.Set
	cat   *relation.Catalog
	tasks []siemens.Task

	spanMS int64
	events []siemens.Event
	tuples []stream.Timestamped
	routes []string // stream name per tuple
	// closers[k] indexes the first msmt_a tuple with a timestamp past
	// k*endGridMS: the earliest tuple that can close a window ending
	// there. -1 when the stream ends first (the window closes at Flush).
	closers []int
}

func makeInputs(seed int64, seconds int) (*inputs, error) {
	gen, err := siemens.New(siemens.Config{
		Turbines: turbines, SensorsPerTurbine: sensorsPerTurbine,
		AssembliesPerTurbine: assembliesPerTurbine, SourceASplit: 0.5, Seed: 1,
	})
	if err != nil {
		return nil, err
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		return nil, err
	}
	in := &inputs{
		seed: seed, tbox: siemens.TBox(), maps: siemens.Mappings(), cat: cat,
		tasks: siemens.Catalog(),
	}
	in.spanMS = int64(seconds) * liveRate / tuplesPerEventSecond * 1000
	in.events = gen.PlantDefaultEvents(0, in.spanMS)
	tuples, routeA, err := gen.Generate(siemens.StreamConfig{
		FromMS: 0, ToMS: in.spanMS, StepMS: stepMS, Events: in.events, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	in.tuples = tuples
	in.routes = make([]string, len(tuples))
	var aTS []int64
	var aIdx []int
	for i, isA := range routeA {
		in.routes[i] = siemens.RouteName(isA)
		if isA {
			aTS = append(aTS, tuples[i].TS)
			aIdx = append(aIdx, i)
		}
	}
	for k := int64(0); k*endGridMS <= in.spanMS; k++ {
		end := k * endGridMS
		j := sort.Search(len(aTS), func(j int) bool { return aTS[j] > end })
		if j == len(aTS) {
			in.closers = append(in.closers, -1)
		} else {
			in.closers = append(in.closers, aIdx[j])
		}
	}
	return in, nil
}

// closerOf returns the grid slot of a window end and the index of the
// tuple that could first close the window, or -1 when only Flush does.
func (in *inputs) closerOf(end int64) (slot, tuple int, err error) {
	if end%endGridMS != 0 || end < 0 {
		return 0, -1, fmt.Errorf("window end %d is off the %d ms grid", end, endGridMS)
	}
	k := int(end / endGridMS)
	if k >= len(in.closers) {
		return k, -1, nil
	}
	return k, in.closers[k], nil
}

// sinkCall is one result delivery: the window end and when the sink ran.
type sinkCall struct {
	end int64
	at  time.Time
}

// latencies maps each delivery to its closing tuple and returns the
// delays in ms from sentAt(grid slot, closing tuple). Windows closed
// only by Flush have no closing tuple and are skipped.
func (in *inputs) latencies(calls []sinkCall, sentAt func(slot, tuple int) time.Time) ([]float64, error) {
	out := make([]float64, 0, len(calls))
	for _, c := range calls {
		k, j, err := in.closerOf(c.end)
		if err != nil {
			return nil, err
		}
		if j < 0 {
			continue
		}
		out = append(out, float64(c.at.Sub(sentAt(k, j)))/1e6)
	}
	return out, nil
}

// memSample reads the runtime counters a stream phase is charged with.
type memSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	usedCPU    float64
}

var memNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readMem() memSample {
	s := make([]metrics.Sample, len(memNames))
	for i, n := range memNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return memSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		usedCPU:    s[3].Value.Float64() - s[4].Value.Float64(),
	}
}

func (m memSample) sub(o memSample) memSample {
	return memSample{
		allocBytes: m.allocBytes - o.allocBytes,
		gcCycles:   m.gcCycles - o.gcCycles,
		gcCPU:      m.gcCPU - o.gcCPU,
		usedCPU:    m.usedCPU - o.usedCPU,
	}
}

// liveHeap forces a collection and returns the heap it found live.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
