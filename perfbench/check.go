package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"flashextract/internal/region"
	"flashextract/internal/schema"
)

// The checks compare the program's outputs with references that do not
// come from the code under test: corpus golden annotations, the spans the
// log generator recorded, and "no values" for unrelated documents.

// checkHighlight reports whether a field's inferred highlighting equals
// its golden instances.
func checkHighlight(golden, out []region.Region) error {
	golden = append([]region.Region(nil), golden...)
	region.Sort(golden)
	missing, spurious, _ := firstMismatch(golden, out)
	switch {
	case missing != nil:
		return fmt.Errorf("golden region %s not highlighted", missing)
	case spurious != nil:
		return fmt.Errorf("region %s highlighted but not golden", spurious)
	}
	return nil
}

// expectedDoc is the reference for one document of a scan_batch request:
// the values every leaf color must extract, in document order (nil for an
// unrelated document, which must extract nothing).
type expectedDoc struct {
	name   string
	values map[string][]string
}

// goldenLeafValues renders a task's golden regions as the leaf values a
// correct extraction yields.
func goldenLeafValues(sch *schema.Schema, golden map[string][]region.Region) map[string][]string {
	out := map[string][]string{}
	for _, fi := range sch.Fields() {
		if !fi.Field.IsLeaf() {
			continue
		}
		rs := append([]region.Region(nil), golden[fi.Color()]...)
		region.Sort(rs)
		for _, r := range rs {
			out[fi.Color()] = append(out[fi.Color()], r.Value())
		}
	}
	return out
}

// record is the part of a batch NDJSON record the checks read.
type record struct {
	Doc   string          `json:"doc"`
	Index int             `json:"index"`
	OK    bool            `json:"ok"`
	Data  json.RawMessage `json:"data"`
	Error string          `json:"error"`
}

// checkRecords compares a scan_batch record stream with its references.
func checkRecords(sch *schema.Schema, want []expectedDoc, records []json.RawMessage) error {
	if len(records) != len(want) {
		return fmt.Errorf("%d records for %d documents", len(records), len(want))
	}
	for i, raw := range records {
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		if rec.Index != i || rec.Doc != want[i].name {
			return fmt.Errorf("record %d is %s #%d, want %s", i, rec.Doc, rec.Index, want[i].name)
		}
		if !rec.OK {
			return fmt.Errorf("record %d (%s) failed: %s", i, rec.Doc, rec.Error)
		}
		got, err := leafValues(sch, rec.Data)
		if err != nil {
			return fmt.Errorf("record %d (%s): %w", i, rec.Doc, err)
		}
		if err := compareLeaves(sch, want[i].values, got); err != nil {
			return fmt.Errorf("record %d (%s): %w", i, rec.Doc, err)
		}
	}
	return nil
}

// compareLeaves checks every leaf color's extracted values against the
// reference, in order. Int and Float leaves compare numerically, because
// the renderer normalizes numbers ("007" becomes 7).
func compareLeaves(sch *schema.Schema, want, got map[string][]string) error {
	for _, fi := range sch.Fields() {
		if !fi.Field.IsLeaf() {
			continue
		}
		color := fi.Color()
		w, g := want[color], got[color]
		if len(w) != len(g) {
			return fmt.Errorf("leaf %s: %d values, want %d", color, len(g), len(w))
		}
		for k := range w {
			if canonical(fi.Field.Leaf, w[k]) != canonical(fi.Field.Leaf, g[k]) {
				return fmt.Errorf("leaf %s value %d: %q, want %q", color, k, g[k], w[k])
			}
		}
	}
	return nil
}

// canonical maps a leaf value to the form a correct rendering keeps.
func canonical(t schema.LeafType, v string) string {
	if t == schema.String {
		return v
	}
	s := strings.TrimSpace(v)
	if !t.ValidValue(s) {
		return v
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return v
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// leafValues collects the leaf values of an extracted instance by the
// schema path they sit at, keyed by the leaf's color.
func leafValues(sch *schema.Schema, data json.RawMessage) (map[string][]string, error) {
	colorAt := map[string]string{}
	for _, fi := range sch.Fields() {
		if fi.Field.IsLeaf() {
			colorAt[fi.Path] = fi.Color()
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if len(bytes.TrimSpace(data)) > 0 {
		if err := dec.Decode(&v); err != nil {
			return nil, err
		}
	}
	out := map[string][]string{}
	var walk func(v any, path string) error
	walk = func(v any, path string) error {
		switch x := v.(type) {
		case nil:
			return nil
		case map[string]any:
			for k, e := range x {
				p := k
				if path != "" {
					p = path + "." + k
				}
				if err := walk(e, p); err != nil {
					return err
				}
			}
			return nil
		case []any:
			for _, e := range x {
				if err := walk(e, path); err != nil {
					return err
				}
			}
			return nil
		}
		color, ok := colorAt[path]
		if !ok {
			return fmt.Errorf("value at %q, which is not a leaf of the schema", path)
		}
		switch x := v.(type) {
		case string:
			out[color] = append(out[color], x)
		case json.Number:
			out[color] = append(out[color], string(x))
		default:
			return fmt.Errorf("leaf %s holds %v", color, x)
		}
		return nil
	}
	root := ""
	if sch.TopSeq != nil {
		root = "item"
	}
	return out, walk(v, root)
}
