package main

import (
	"encoding/json"
	"fmt"

	"flashextract/internal/region"
	"flashextract/internal/schema"
)

// selfTest feeds each checker a correct output built from the reference
// and perturbed copies of it, and fails unless the first passes and every
// perturbation is caught.
func selfTest() error {
	sch, err := schema.Parse(dataNodeSchema)
	if err != nil {
		return err
	}
	r := newRNG(0, 9)
	l := generateLog(r, r, 40)
	lt := openLog(l, sch)

	ts := lt.golden["ts"]
	if err := checkHighlight(ts, ts); err != nil {
		return fmt.Errorf("golden highlighting rejected: %w", err)
	}
	shifted := append([]region.Region(nil), ts...)
	first := l.spans["ts"][0]
	shifted[0] = lt.doc.Region(first[0]+1, first[1])
	badHighlights := map[string][]region.Region{
		"dropped":  ts[1:],
		"spurious": append(append([]region.Region(nil), ts...), lt.golden["warnmsg"][0]),
		"shifted":  shifted,
	}
	for name, out := range badHighlights {
		region.Sort(out)
		if checkHighlight(ts, out) == nil {
			return fmt.Errorf("%s highlighting accepted", name)
		}
	}

	want := l.goldenValues()
	doc := func(values map[string][]string) map[string]any {
		return map[string]any{"Stamps": values["ts"], "Warnings": values["warnmsg"]}
	}
	rec := func(name string, ok bool, data any) json.RawMessage {
		raw, _ := json.Marshal(map[string]any{"doc": name, "index": 0, "ok": ok, "data": data})
		return raw
	}
	exp := []expectedDoc{{name: "d0", values: want}}
	if err := checkRecords(sch, exp, []json.RawMessage{rec("d0", true, doc(want))}); err != nil {
		return fmt.Errorf("golden record rejected: %w", err)
	}
	if err := checkRecords(sch, []expectedDoc{{name: "d0"}}, []json.RawMessage{rec("d0", true, doc(nil))}); err != nil {
		return fmt.Errorf("empty record of an unrelated document rejected: %w", err)
	}
	perturb := func(f func(v map[string][]string)) map[string]any {
		v := map[string][]string{}
		for k, xs := range want {
			v[k] = append([]string(nil), xs...)
		}
		f(v)
		return doc(v)
	}
	badRecords := map[string]json.RawMessage{
		"value dropped": rec("d0", true, perturb(func(v map[string][]string) { v["ts"] = v["ts"][1:] })),
		"value changed": rec("d0", true, perturb(func(v map[string][]string) { v["warnmsg"][0] += "x" })),
		"values swapped": rec("d0", true, perturb(func(v map[string][]string) {
			v["ts"][0], v["ts"][1] = v["ts"][1], v["ts"][0]
		})),
		"error record": rec("d0", false, nil),
		"wrong doc":    rec("d1", true, doc(want)),
		"unknown path": rec("d0", true, map[string]any{"Stamps": want["ts"], "Other": []string{"x"}}),
	}
	for name, raw := range badRecords {
		if checkRecords(sch, exp, []json.RawMessage{raw}) == nil {
			return fmt.Errorf("%s: record accepted", name)
		}
	}
	if checkRecords(sch, []expectedDoc{{name: "d0"}}, []json.RawMessage{rec("d0", true, doc(want))}) == nil {
		return fmt.Errorf("values from an unrelated document accepted")
	}
	if checkRecords(sch, exp, nil) == nil {
		return fmt.Errorf("missing record accepted")
	}
	return nil
}
