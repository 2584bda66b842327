package starql

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/obda/mapping"
	"repro/internal/relation"
	"repro/internal/stream"
)

// referenceBuild is the row-at-a-time sequence builder kept as the
// oracle for BuildColumnar: it walks batch.Rows directly, resolves
// every column by name per row, renders every IRI per row, and
// evaluates mapping source filters with the engine's reference
// interpreter (engine.Eval), so it shares no code path with the
// production builder beyond the template renderer.
func referenceBuild(b *SequenceBuilder, batch stream.Batch, subjects map[string]bool) (*Sequence, error) {
	schema := b.schema.Tuple
	funcs := engine.NewFuncRegistry()
	byTS := map[int64]*State{}
	for _, row := range batch.Rows {
		ts, ok := row[b.tsIdx].AsInt()
		if !ok {
			return nil, fmt.Errorf("starql: row without timestamp: %v", row)
		}
		st, ok := byTS[ts]
		if !ok {
			st = &State{TS: ts, props: map[string]map[string][]relation.Value{}}
			byTS[ts] = st
		}
		for _, m := range b.mappings {
			if m.Source.Where != nil {
				v, err := engine.Eval(m.Source.Where, schema, row, funcs)
				if err != nil {
					return nil, err
				}
				if !v.Truthy() {
					continue
				}
			}
			subj, err := renderRow(m.Subject, schema, row)
			if err != nil {
				return nil, err
			}
			if subjects != nil && !subjects[subj] {
				continue
			}
			var val relation.Value
			switch {
			case m.IsClass:
				val = relation.Bool_(true)
			case m.ObjectIsData:
				idx, err := schema.IndexOf(m.Object.Columns[0])
				if err != nil {
					return nil, err
				}
				val = row[idx]
			default:
				iri, err := renderRow(m.Object, schema, row)
				if err != nil {
					return nil, err
				}
				val = relation.String_(iri)
			}
			props, ok := st.props[subj]
			if !ok {
				props = map[string][]relation.Value{}
				st.props[subj] = props
			}
			props[m.Pred] = append(props[m.Pred], val)
		}
	}
	seq := &Sequence{States: make([]State, 0, len(byTS))}
	for _, st := range byTS {
		seq.States = append(seq.States, *st)
	}
	sort.Slice(seq.States, func(i, j int) bool { return seq.States[i].TS < seq.States[j].TS })
	return seq, nil
}

// renderRow applies an IRI template to one stream row, resolving each
// template column by name.
func renderRow(t mapping.Template, schema relation.Schema, row relation.Tuple) (string, error) {
	segs := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		idx, err := schema.IndexOf(c)
		if err != nil {
			return "", err
		}
		segs[i] = rawString(row[idx])
	}
	return t.Render(segs)
}
