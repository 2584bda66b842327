package starql

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obda/mapping"
	"repro/internal/relation"
	"repro/internal/sql"
)

// sameSequence compares two sequences state-by-state (nil-vs-empty
// state slices are equal; the reference and columnar builders may
// differ in that representation only).
func sameSequence(a, b *Sequence) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.States {
		if a.States[i].TS != b.States[i].TS {
			return false
		}
		if !reflect.DeepEqual(a.States[i].props, b.States[i].props) {
			return false
		}
	}
	return true
}

// mappingCoolUnless is a stream-sourced class mapping whose source
// filter, NOT (val > 60), is NULL on a NULL measurement: under SQL
// three-valued logic such a row asserts nothing.
func mappingCoolUnless() mapping.Mapping {
	return mapping.Mapping{
		ID: "cool", Pred: sieNS + "CoolReading", IsClass: true,
		Subject: mapping.MustParseTemplate("http://siemens.com/data/sensor/{sid}"),
		Source: mapping.SourceRef{
			Table: "S_Msmt", IsStream: true,
			Where: &sql.UnaryExpr{Op: "NOT", Expr: sql.Bin(">", sql.Col("val"), sql.Lit(relation.Float(60)))},
		},
	}
}

// TestBuildColumnarMatchesBuild is the sequence-builder differential:
// the columnar build over a window batch — through BuildColumnar and
// through BuildColumns fed the batch's column vectors directly, the way
// the core window sink feeds the engine's result — must produce exactly
// the sequence the row-at-a-time reference builder (referenceBuild,
// with engine.Eval filters) produces, for random batches, subject
// filters, NULL-bearing rows under a NOT filter, and empty windows.
func TestBuildColumnarMatchesBuild(t *testing.T) {
	set := testMappings(t)
	if err := set.set.Add(mappingCoolUnless()); err != nil {
		t.Fatal(err)
	}
	sb, err := NewSequenceBuilder(msmtStreamSchema(), set.set)
	if err != nil {
		t.Fatal(err)
	}
	s7 := "http://siemens.com/data/sensor/7"
	rng := rand.New(rand.NewSource(31))
	randRows := func(n int) []relation.Tuple {
		rows := make([]relation.Tuple, n)
		for i := range rows {
			rows[i] = row(int64(rng.Intn(4)+6), int64(rng.Intn(5))*1000, float64(rng.Intn(40)+50), int64(rng.Intn(2)))
			if rng.Intn(6) == 0 {
				rows[i][2] = relation.Null // NULL measurement value
			}
		}
		return rows
	}
	subjectsPool := []map[string]bool{nil, {s7: true}, {}}
	for trial := 0; trial < 60; trial++ {
		batch := batchOf(randRows(rng.Intn(30))...)
		if rng.Intn(2) == 0 {
			batch.Columns() // pre-materialise the shared transpose
		}
		subjects := subjectsPool[rng.Intn(len(subjectsPool))]
		want, err1 := referenceBuild(sb, batch, subjects)
		got, err2 := sb.BuildColumnar(batch, subjects)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: error disagreement: reference=%v columnar=%v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !sameSequence(want, got) {
			t.Fatalf("trial %d: sequences differ\nreference: %+v\ncolumnar:  %+v", trial, want, got)
		}
		direct, err := sb.BuildColumns(relation.Transpose(batch.Rows), subjects)
		if err != nil {
			t.Fatalf("trial %d: BuildColumns: %v", trial, err)
		}
		if !sameSequence(want, direct) {
			t.Fatalf("trial %d: sequences differ\nreference: %+v\ncolumns:   %+v", trial, want, direct)
		}
	}
}

// TestBuildColumnarErrorParity pins the timestamp-error contract: a row
// whose timestamp column is not an integer fails both builders. A
// window whose columns do not match the stream schema is an error too.
func TestBuildColumnarErrorParity(t *testing.T) {
	set := testMappings(t)
	sb, err := NewSequenceBuilder(msmtStreamSchema(), set.set)
	if err != nil {
		t.Fatal(err)
	}
	bad := batchOf(
		row(7, 1000, 70, 0),
		relation.Tuple{relation.Int(7), relation.Null, relation.Float(70), relation.Int(0)},
	)
	if _, err := referenceBuild(sb, bad, nil); err == nil {
		t.Fatal("reference build accepted a NULL timestamp")
	}
	if _, err := sb.BuildColumnar(bad, nil); err == nil {
		t.Fatal("columnar build accepted a NULL timestamp")
	}
	narrow := relation.Transpose([]relation.Tuple{{relation.Int(7), relation.Time(1000)}})
	if _, err := sb.BuildColumns(narrow, nil); err == nil {
		t.Fatal("BuildColumns accepted a window narrower than the stream schema")
	}
}

// TestMappingFilterNullRejects is the three-valued-logic regression for
// mapping source filters: with val NULL, NOT (val > 60) is NULL, not
// TRUE, so the row contributes no CoolReading assertion — the same
// verdict the unfolded SQL fleet reaches on that row.
func TestMappingFilterNullRejects(t *testing.T) {
	set := testMappings(t)
	if err := set.set.Add(mappingCoolUnless()); err != nil {
		t.Fatal(err)
	}
	sb, err := NewSequenceBuilder(msmtStreamSchema(), set.set)
	if err != nil {
		t.Fatal(err)
	}
	nullVal := row(7, 1000, 0, 0)
	nullVal[2] = relation.Null
	batch := batchOf(nullVal, row(8, 1000, 50, 0))
	seq, err := sb.BuildColumnar(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	cool := sieNS + "CoolReading"
	if got := seq.States[0].Values("http://siemens.com/data/sensor/7", cool); len(got) != 0 {
		t.Errorf("NULL measurement asserted %s: %v", cool, got)
	}
	if got := seq.States[0].Values("http://siemens.com/data/sensor/8", cool); len(got) != 1 {
		t.Errorf("val 50 should assert %s once, got %v", cool, got)
	}
	ref, err := referenceBuild(sb, batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSequence(ref, seq) {
		t.Errorf("reference builder disagrees:\nreference: %+v\ncolumnar:  %+v", ref, seq)
	}
}
