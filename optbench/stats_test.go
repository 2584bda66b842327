package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/relation"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted on purpose
	}
	for _, c := range []struct {
		p            float64
		want         float64
		wantBeyond   int
		wantSupports bool
	}{
		{0.5, 100, 100, true},
		{0.95, 190, 10, true},
		{0.99, 198, 2, false},
		{1, 200, 0, false},
	} {
		got, beyond := percentile(append([]float64(nil), xs...), c.p)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, got, beyond, c.want, c.wantBeyond)
		}
		_, err := tailPercentile(append([]float64(nil), xs...), c.p)
		if (err == nil) != c.wantSupports {
			t.Errorf("p%v: tailPercentile error %v, want supported=%v", c.p, err, c.wantSupports)
		}
	}
	if _, beyond := percentile(nil, 0.5); beyond != 0 {
		t.Errorf("empty input has %d beyond", beyond)
	}
}

func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0},     // even the median leaves only 5 beyond
		{20, 0.5},   // median leaves 10
		{199, 0.9},  // p95 leaves 9
		{200, 0.95}, // p95 leaves exactly 10
		{1000, 0.99},
		{10000, 0.999},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Errorf("median = %v", m)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestAlertDigestIsOrderFreeButCountsDuplicates(t *testing.T) {
	a := []alert{{"T01", 1000, "s1"}, {"T04", 2000, "s2"}, {"T04", 2000, "s2"}}
	b := []alert{{"T04", 2000, "s2"}, {"T01", 1000, "s1"}, {"T04", 2000, "s2"}}
	if alertDigest(a) != alertDigest(b) {
		t.Error("digest depends on delivery order")
	}
	if alertDigest(a) == alertDigest(a[:2]) {
		t.Error("digest ignores a duplicate answer")
	}
	c := []alert{{"T01", 1000, "s1"}, {"T04", 3000, "s2"}, {"T04", 2000, "s2"}}
	if alertDigest(a) == alertDigest(c) {
		t.Error("digest ignores the window end")
	}
	// Field boundaries are delimited: moving a character between fields
	// must change the digest.
	if alertDigest([]alert{{"T0", 11, "x"}}) == alertDigest([]alert{{"T01", 1, "x"}}) {
		t.Error("digest runs fields together")
	}
}

func TestRowDigestIsOrderFree(t *testing.T) {
	r1 := relation.Tuple{relation.Int(1), relation.Float(2.5)}
	r2 := relation.Tuple{relation.Int(2), relation.Float(0.5)}
	var a, b, c rowDigest
	a.add("q1", 1000, []relation.Tuple{r1, r2})
	a.add("q2", 1000, []relation.Tuple{r2})
	b.add("q2", 1000, []relation.Tuple{r2})
	b.add("q1", 1000, []relation.Tuple{r2, r1})
	if a.String() != b.String() {
		t.Errorf("row digest depends on order: %s vs %s", a.String(), b.String())
	}
	c.add("q1", 2000, []relation.Tuple{r1, r2})
	c.add("q2", 1000, []relation.Tuple{r2})
	if a.String() == c.String() {
		t.Error("row digest ignores the window end")
	}
}

// spansOf builds spans from (start, end, parent) triples in ms.
func spansOf(name []string, iv [][3]int64) []span {
	out := make([]span, len(iv))
	for i, v := range iv {
		out[i] = span{name: name[i], start: v[0] * 1e6, end: v[1] * 1e6, parent: int32(v[2])}
	}
	return out
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := spansOf(
		[]string{"ingest", "sink", "build", "having", "sink"},
		[][3]int64{
			{0, 100, -1}, // root
			{10, 50, 0},  // sink with two children covering 10..45
			{10, 30, 1},
			{30, 45, 1},
			{40, 70, 0}, // a second sink overlapping the first: root's children cover 10..70
		})
	lt := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"ingest": 40 * time.Millisecond, // 100 - |10..70|
		"sink":   35 * time.Millisecond, // (40 - 35) + 30
		"build":  20 * time.Millisecond,
		"having": 15 * time.Millisecond,
	} {
		if got := lt[name].self; got != want {
			t.Errorf("%s self = %v, want %v", name, got, want)
		}
	}
	if lt["sink"].calls != 2 || lt["sink"].total != 70*time.Millisecond {
		t.Errorf("sink: %d calls, %v total; want 2 and 70ms", lt["sink"].calls, lt["sink"].total)
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	// A child that outlives its parent only covers the overlap.
	spans := spansOf([]string{"p", "c"}, [][3]int64{{0, 10, -1}, {5, 20, 0}})
	if got := selfTimes(spans)["p"].self; got != 5*time.Millisecond {
		t.Errorf("parent self = %v, want 5ms", got)
	}
}

func TestRecorderNestsAndDropsOpenSpans(t *testing.T) {
	r := newRecorder("t", 4)
	root := r.begin("root", -1)
	child := r.begin("child", root)
	r.end(child)
	r.begin("open", root) // never closed
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d closed spans, want 2", len(spans))
	}
	if spans[1].name != "child" || spans[1].parent != 0 {
		t.Errorf("child span %+v does not point at the root", spans[1])
	}
	var none *recorder
	if i := none.begin("x", -1); i != -1 {
		t.Errorf("nil recorder returned span %d", i)
	}
	none.end(0)
}
