package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's base; parent indexes the enclosing span (-1 for a root).
type span struct {
	name       string
	start, end int64
	parent     int32
}

// recorder keeps spans in memory for one run and writes them out when
// the run ends. A nil recorder records nothing, so untraced runs pay one
// nil check per call site.
type recorder struct {
	run  string
	base time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(run string, capacity int) *recorder {
	return &recorder{run: run, base: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span under parent (-1 for none) and returns its index.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.base))
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, start: now, end: -1, parent: int32(parent)})
	i := len(r.spans) - 1
	r.mu.Unlock()
	return i
}

// end closes span i.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := int64(time.Since(r.base))
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// snapshot returns a copy of the closed spans, with parent links
// rewritten to the copy's indexes (an open parent becomes -1).
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := make([]int32, len(r.spans))
	out := make([]span, 0, len(r.spans))
	for i, s := range r.spans {
		if s.end < 0 {
			idx[i] = -1
			continue
		}
		idx[i] = int32(len(out))
		out = append(out, s)
	}
	for i := range out {
		if p := out[i].parent; p >= 0 {
			out[i].parent = idx[p]
		}
	}
	return out
}

// layerTime is the busy time of one span name: total is the summed span
// durations, self subtracts the part of each span its children cover.
type layerTime struct {
	calls int
	total time.Duration
	self  time.Duration
	durs  []float64 // per-call durations in ns, for percentiles
}

// selfTimes folds spans by name. A span's self time is its duration
// minus the union of its children's intervals clipped to it, so
// overlapping children (parallel callees) are not subtracted twice.
func selfTimes(spans []span) map[string]*layerTime {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := map[string]*layerTime{}
	for i, s := range spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTime{}
			out[s.name] = lt
		}
		d := s.end - s.start
		lt.calls++
		lt.total += time.Duration(d)
		lt.durs = append(lt.durs, float64(d))
		lt.self += time.Duration(d - covered(s, spans, children[i]))
	}
	return out
}

// covered is how much of parent's interval the child spans cover.
func covered(parent span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, curLo, curHi int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

// write dumps the spans as JSON lines: one header, then one object per
// span carrying the run id, name, start, end and parent index.
func (r *recorder) write(path string) error {
	spans := r.snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Run    string `json:"run"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
	}
	if _, err := fmt.Fprintf(w, "{\"run\":%q,\"base\":%q,\"spans\":%d}\n", r.run, r.base.Format(time.RFC3339Nano), len(spans)); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(line{r.run, s.name, s.start, s.end, s.parent}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
