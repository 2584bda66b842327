package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/relation"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail percentile resting on fewer is noise, so it is not reported.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs and
// the number of samples ranked strictly beyond it. xs is sorted in
// place.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1], len(xs) - rank
}

// tailPercentile is percentile with the sample-count rule: it fails
// unless at least minBeyond samples lie beyond the percentile.
func tailPercentile(xs []float64, p float64) (float64, error) {
	v, beyond := percentile(xs, p)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, len(xs), beyond, minBeyond)
	}
	return v, nil
}

// highestSupported returns the highest of the usual percentiles that
// keeps minBeyond samples beyond it, or 0 when none does.
func highestSupported(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.5} {
		if n-int(math.Ceil(p*float64(n))) >= minBeyond {
			return p
		}
	}
	return 0
}

// median returns the median of xs (mean of the middle pair for even
// lengths) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// alert is one emitted CONSTRUCT answer: a task flagged a subject in the
// window ending at end.
type alert struct {
	task    string
	end     int64
	subject string
}

// alertDigest is an order-independent fingerprint of a multiset of
// alerts: equal digests mean the same answers, whatever order the
// parallel windows delivered them in.
func alertDigest(alerts []alert) string {
	lines := make([]string, len(alerts))
	for i, a := range alerts {
		lines[i] = a.task + "\x1f" + strconv.FormatInt(a.end, 10) + "\x1f" + a.subject
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// rowDigest fingerprints window results order-independently by summing
// a hash per (query, window end, row). The sum commutes, so sinks on
// different nodes may add in any order.
type rowDigest struct {
	sum  atomic.Uint64
	rows atomic.Int64
}

func (d *rowDigest) add(query string, end int64, rows []relation.Tuple) {
	h := fnvWord(fnv64(fnvOffset, query), uint64(end))
	var acc uint64
	for _, row := range rows {
		rh := h
		for _, v := range row {
			rh = fnvWord(rh, uint64(v.Type))
			rh = fnvWord(rh, uint64(v.Int))
			rh = fnvWord(rh, math.Float64bits(v.Float))
			rh = fnv64(rh, v.Str)
			if v.Bool {
				rh = fnvWord(rh, 1)
			}
		}
		acc += rh
	}
	d.sum.Add(acc)
	d.rows.Add(int64(len(rows)))
}

func (d *rowDigest) String() string {
	return fmt.Sprintf("%016x/%d", d.sum.Load(), d.rows.Load())
}

const fnvOffset = 14695981039346656037

// fnv64 is FNV-1a over s, continuing from h.
func fnv64(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// fnvWord is FNV-1a over the eight bytes of w, continuing from h.
func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= 1099511628211
		w >>= 8
	}
	return h
}

// joinDigests renders a set of per-round digests, collapsing equal ones.
func joinDigests(ds []string) string {
	seen := map[string]bool{}
	var out []string
	for _, d := range ds {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return strings.Join(out, ",")
}
