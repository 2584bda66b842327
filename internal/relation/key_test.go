package relation

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// fmtKey is the fmt-based encoding Tuple.Key replaced; it is kept here as
// the reference the strconv encoding must reproduce byte for byte.
func fmtKey(t Tuple, cols []int) string {
	var sb strings.Builder
	for _, c := range cols {
		v := t[c]
		sb.WriteByte(byte(v.Type) + '0')
		switch v.Type {
		case TInt, TTime:
			fmt.Fprintf(&sb, "%d", v.Int)
		case TFloat:
			fmt.Fprintf(&sb, "%g", v.Float)
		case TString:
			sb.WriteString(v.Str)
		case TBool:
			if v.Bool {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		sb.WriteByte(0x1f)
	}
	return sb.String()
}

func TestTupleKeyMatchesFmtEncoding(t *testing.T) {
	values := []Value{
		Null,
		Int(0), Int(1), Int(-1), Int(42), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(1), Float(-1.5), Float(0.1), Float(1e6), Float(1e21), Float(123456789.125),
		Float(1e-7), Float(5e-324), Float(math.MaxFloat64), Float(-math.SmallestNonzeroFloat64),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()),
		String_(""), String_("abc"), String_("a\x1fb"), String_("\x1f"), String_("naïve"),
		Bool_(true), Bool_(false),
		Time(0), Time(1700000000000), Time(-5),
	}
	for _, v := range values {
		row := Tuple{v}
		if got, want := row.Key([]int{0}), fmtKey(row, []int{0}); got != want {
			t.Errorf("Key(%v) = %q, fmt encoding %q", v, got, want)
		}
	}
	// Multi-column keys concatenate the per-value encodings.
	row := Tuple(values)
	cols := make([]int, len(values))
	for i := range cols {
		cols[len(cols)-1-i] = i
	}
	if got, want := row.Key(cols), fmtKey(row, cols); got != want {
		t.Errorf("multi-column Key = %q, fmt encoding %q", got, want)
	}
}

// SQL says -0 = 0, so the two zeros must share a key (the fmt encoding
// keyed -0.0 as "-0").
func TestTupleKeyNegativeZero(t *testing.T) {
	neg, pos := Tuple{Float(math.Copysign(0, -1))}, Tuple{Float(0)}
	if !Equal(neg[0], pos[0]) {
		t.Fatal("Equal(-0.0, 0.0) is false")
	}
	if neg.Key([]int{0}) != pos.Key([]int{0}) {
		t.Errorf("Key(-0.0) = %q, Key(0.0) = %q", neg.Key([]int{0}), pos.Key([]int{0}))
	}
	if got, want := neg.Key([]int{0}), fmtKey(pos, []int{0}); got != want {
		t.Errorf("Key(-0.0) = %q, want the fmt encoding of 0.0 %q", got, want)
	}
}

// An index lookup must agree with the scan (which compares with Equal)
// when the probe and the stored value are zeros of opposite sign.
func TestLookupNegativeZero(t *testing.T) {
	negZero := Float(math.Copysign(0, -1))
	for _, stored := range []Value{Float(0), negZero} {
		for _, probe := range []Value{Float(0), negZero} {
			tb := NewTable("z", NewSchema(Col("x", TFloat), Col("tag", TString)))
			tb.MustInsert(Tuple{stored, String_("zero")})
			tb.MustInsert(Tuple{Float(1), String_("one")})
			scanned, indexed, err := tb.Lookup([]string{"x"}, []Value{probe})
			if err != nil || indexed {
				t.Fatalf("scan Lookup: indexed=%v err=%v", indexed, err)
			}
			if err := tb.CreateIndex("x"); err != nil {
				t.Fatal(err)
			}
			hashed, indexed, err := tb.Lookup([]string{"x"}, []Value{probe})
			if err != nil || !indexed {
				t.Fatalf("index Lookup: indexed=%v err=%v", indexed, err)
			}
			if len(scanned) != 1 || len(hashed) != len(scanned) {
				t.Errorf("stored %v, probe %v: scan found %d rows, index %d",
					stored.Float, probe.Float, len(scanned), len(hashed))
			}
		}
	}
}

func BenchmarkTupleKey(b *testing.B) {
	row := Tuple{Int(123456), String_("http://siemens.com/data/sensor/17"), Float(98.25), Time(1700000000000)}
	cols := []int{0, 1, 2, 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = row.Key(cols)
	}
}
