package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obda/mapping"
	"repro/internal/rdf"
	"repro/internal/relation"
	"repro/internal/siemens"
	"repro/internal/sql"
)

// TestSinkErrorsCounted: a stream mapping whose source filter fails at
// run time (length() of a float) makes every window's sequence build
// fail. The window sink must count each failure on starql.sink.errors
// and emit nothing, not drop the window silently.
func TestSinkErrorsCounted(t *testing.T) {
	gen, err := siemens.New(siemens.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		t.Fatal(err)
	}
	set := siemens.Mappings()
	if err := set.Add(mapping.Mapping{
		ID: "poison", Pred: "http://x/Poison", IsClass: true,
		Subject: mapping.MustParseTemplate(siemens.DataNS + "sensor/{sid}"),
		Source: mapping.SourceRef{Table: "msmt_a", IsStream: true,
			Where: sql.Bin(">", &sql.FuncExpr{Name: "length", Args: []sql.Expr{sql.Col("val")}},
				sql.Lit(relation.Int(0)))},
	}); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{Nodes: 1}, siemens.TBox(), set, cat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	for _, sc := range siemens.StreamSchemas() {
		if err := sys.DeclareStream(sc); err != nil {
			t.Fatal(err)
		}
	}
	spec, _ := siemens.TaskByID("T01_mon_temperature")
	log := &answerLog{}
	task, err := sys.RegisterTask(spec.ID, spec.Query, log.sink)
	if err != nil {
		t.Fatal(err)
	}
	feedDefaultEvents(t, sys, gen, 0, 20_000, 500, gen.SensorsOfTurbine(0))

	if task.Windows() == 0 {
		t.Fatal("no windows reached the task")
	}
	snap := sys.TelemetrySnapshot()
	if got := snap.Counters["starql.sink.errors"]; got == 0 {
		t.Error("failed sequence builds were not counted on starql.sink.errors")
	}
	if n := len(sortedAlerts(log)); n != 0 {
		t.Errorf("%d alerts emitted from windows whose sequence build failed", n)
	}
}

// endAlerts collects emitted triples keyed by window end, so a window
// delivered twice shows up as a duplicated entry.
type endAlerts struct {
	mu  sync.Mutex
	out []string
}

func (a *endAlerts) sink(task string, end int64, ts []rdf.Triple) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, tr := range ts {
		a.out = append(a.out, fmt.Sprintf("%s@%d %s %s %s", task, end, tr.S.Value, tr.P.Value, tr.O.Value))
	}
}

func (a *endAlerts) sorted() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := append([]string(nil), a.out...)
	sort.Strings(out)
	return out
}

// runCheckpointedTasks replays turbine 0 into two round-robin-placed
// tasks (T01 on node 0, T06 on node 1) with pulse-aligned checkpoints,
// and returns each task's window count and the window-stamped alerts.
func runCheckpointedTasks(t *testing.T, inj cluster.FaultInjector) (map[string]int64, []string, *System) {
	t.Helper()
	sys, gen := deployWith(t, Config{
		Nodes: 2, Placement: cluster.PlaceRoundRobin, MaxRestarts: 1,
		CheckpointEvery: 8, Faults: inj,
	})
	log := &endAlerts{}
	var tasks []*Task
	for _, id := range []string{"T01_mon_temperature", "T06_thr_pressure"} {
		spec, _ := siemens.TaskByID(id)
		task, err := sys.RegisterTask(spec.ID, spec.Query, log.sink)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	if tasks[0].Node != 0 || tasks[1].Node != 1 {
		t.Fatalf("round-robin placement broke: %d/%d", tasks[0].Node, tasks[1].Node)
	}
	events := gen.PlantDefaultEvents(0, 30_000)
	tuples, routes, err := gen.Generate(siemens.StreamConfig{
		FromMS: 0, ToMS: 30_000, StepMS: 500,
		Sensors: gen.SensorsOfTurbine(0), Events: events, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, el := range tuples {
		if err := sys.Ingest(siemens.RouteName(routes[i]), el); err != nil {
			t.Fatal(err)
		}
	}
	if inj != nil {
		deadline := time.Now().Add(10 * time.Second)
		for sys.Health().Dead != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("node 1 never failed over: %+v", sys.Health())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := sys.Cluster().WaitSettled(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	windows := map[string]int64{}
	for _, task := range tasks {
		windows[task.ID] = task.Windows()
	}
	return windows, log.sorted(), sys
}

// TestCheckpointedTasksExactlyOnceAcrossFailover: with CheckpointEvery
// set, the emit gate wraps each task's columnar window sink. A crash
// right after T06 delivers a window (the restart replays it) and a
// second crash that fails node 1 over must leave every task with
// exactly the windows and alerts of a fault-free run — none lost, none
// delivered twice.
func TestCheckpointedTasksExactlyOnceAcrossFailover(t *testing.T) {
	wantWindows, wantAlerts, _ := runCheckpointedTasks(t, nil)
	if len(wantAlerts) == 0 {
		t.Fatal("fault-free run raised no alerts — the comparison is vacuous")
	}
	inj := faults.New(7).CrashAfterEmit("T06_thr_pressure", 3).PanicAt(1, 200)
	gotWindows, gotAlerts, sys := runCheckpointedTasks(t, inj)

	if got := inj.Injected(faults.KindCrashEmit); got != 1 {
		t.Errorf("injected %d post-emit crashes, want 1", got)
	}
	if got := inj.Injected(faults.KindPanic); got != 1 {
		t.Errorf("injected %d worker panics, want 1", got)
	}
	if h := sys.Health(); h.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", h.Failovers)
	}
	if !reflect.DeepEqual(gotWindows, wantWindows) {
		t.Errorf("windows per task = %v, want %v (fault-free)", gotWindows, wantWindows)
	}
	if !reflect.DeepEqual(gotAlerts, wantAlerts) {
		t.Errorf("alerts diverged under faults:\n  fault-free: %v\n  faulted:    %v", wantAlerts, gotAlerts)
	}
	if got := sys.TelemetrySnapshot().Counters["recovery.deduped_windows"]; got < 1 {
		t.Errorf("recovery.deduped_windows = %d, want >= 1 (the replayed window must be suppressed)", got)
	}
}

// TestUnregisterReleasesTaskSink: once a task is unregistered nothing in
// the runtime keeps its window sink, and through it the task and its
// answer sink, reachable — churned tasks must not pile up on the heap.
func TestUnregisterReleasesTaskSink(t *testing.T) {
	sys, gen := deployWith(t, Config{Nodes: 1, CheckpointEvery: 8})
	spec, _ := siemens.TaskByID("T01_mon_temperature")
	released := make(chan struct{})
	func() {
		type marker struct{ pad [64]byte }
		m := &marker{}
		runtime.SetFinalizer(m, func(*marker) { close(released) })
		if _, err := sys.RegisterTask(spec.ID, spec.Query, func(string, int64, []rdf.Triple) { _ = m.pad[0] }); err != nil {
			t.Fatal(err)
		}
	}()
	feedDefaultEvents(t, sys, gen, 0, 5000, 500, gen.SensorsOfTurbine(0))
	if err := sys.Unregister(spec.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the unregistered task's sink is still reachable")
}
