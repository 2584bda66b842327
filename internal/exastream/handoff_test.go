package exastream

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stream"
)

// TestResultSinkSelectStarIsZeroCopy pins the columnar hand-off for the
// query shape a STARQL task registers (SELECT * over one window): the
// column vectors its sink receives are the shared transpose of the
// window batch the wCache holds, not a copy.
func TestResultSinkSelectStarIsZeroCopy(t *testing.T) {
	e := testRig(t, Options{ShareWindows: true})
	stmt := sql.MustParse("SELECT * FROM STREAM msmt [RANGE 1000 SLIDE 500] AS w")
	checked := 0
	sink := func(_ string, end int64, _ relation.Schema, res engine.Result) {
		if res.Len() == 0 {
			return
		}
		var shared *relation.ColBatch
		for _, cw := range e.wcache.SnapshotBatches() {
			if cw.Stream == "msmt" && cw.Batch.End == end {
				shared = cw.Batch.Columns()
			}
		}
		if shared == nil {
			t.Errorf("window %d: batch not in the wCache", end)
			return
		}
		cols := res.Columns()
		if cols.Arity() != shared.Arity() || cols.Len() != shared.Len() {
			t.Errorf("window %d: columns %dx%d, shared batch %dx%d",
				end, cols.Arity(), cols.Len(), shared.Arity(), shared.Len())
			return
		}
		for j := 0; j < shared.Arity(); j++ {
			if cols.Col(j) != shared.Col(j) {
				t.Errorf("window %d: column %d is a copy, not the shared vector", end, j)
			}
		}
		checked++
	}
	if err := e.RegisterResults("star", stmt, nil, sink); err != nil {
		t.Fatal(err)
	}
	feed(t, e, 40, 100)
	if checked == 0 {
		t.Fatal("no non-empty window reached the sink")
	}
}

// TestResultSinkColumnsMatchRows is the selection/gather differential
// of the hand-off: a filtering query read through the columns view
// (gathered from the selection) yields per window exactly the tuples
// the public row Sink receives, including windows with no input and
// windows whose every row is filtered out.
func TestResultSinkColumnsMatchRows(t *testing.T) {
	e := testRig(t, Options{ShareWindows: true})
	stmt := sql.MustParse("SELECT w.sid, w.val FROM STREAM msmt [RANGE 1000 SLIDE 500] AS w WHERE w.val > 50")
	var mu sync.Mutex
	fromCols := map[int64][]relation.Tuple{}
	fromRows := map[int64][]relation.Tuple{}
	colSink := func(_ string, end int64, _ relation.Schema, res engine.Result) {
		cb := res.Columns()
		var rows []relation.Tuple
		for i := 0; i < cb.Len(); i++ {
			rows = append(rows, cb.Row(i))
		}
		mu.Lock()
		fromCols[end] = rows
		mu.Unlock()
	}
	rowSink := func(_ string, end int64, _ relation.Schema, rows []relation.Tuple) {
		mu.Lock()
		fromRows[end] = rows
		mu.Unlock()
	}
	if err := e.RegisterResults("cols", stmt, nil, colSink); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("rows", stmt, nil, rowSink); err != nil {
		t.Fatal(err)
	}
	// val 10 until 2s (every row filtered), a gap with no input from 4s
	// to 6s, and val 90 otherwise.
	for ts := int64(0); ts < 8000; ts += 100 {
		if ts >= 4000 && ts < 6000 {
			continue
		}
		val := 90.0
		if ts < 2000 {
			val = 10
		}
		el := stream.Timestamped{TS: ts, Row: relation.Tuple{
			relation.Int(ts%3 + 1), relation.Time(ts), relation.Float(val),
		}}
		if err := e.Ingest("msmt", el); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(fromRows) == 0 || len(fromCols) != len(fromRows) {
		t.Fatalf("columns view saw %d windows, rows view %d", len(fromCols), len(fromRows))
	}
	full := 0
	for end, want := range fromRows {
		got := fromCols[end]
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		full++
		if !reflect.DeepEqual(got, want) {
			t.Errorf("window %d: columns view %v, rows view %v", end, got, want)
		}
	}
	if full == 0 {
		t.Error("no window kept a row")
	}
	// (500, 1500] has only filtered rows and (4000, 5000] no input at all.
	for _, end := range []int64{1500, 5000} {
		if rows, ok := fromRows[end]; !ok || len(rows) != 0 || len(fromCols[end]) != 0 {
			t.Errorf("window %d: delivered %v, rows view %d rows, columns view %d rows",
				end, ok, len(rows), len(fromCols[end]))
		}
	}
}
