package main

import (
	"context"
	"sort"
	"strings"
	"time"

	"flashextract/internal/engine"
	"flashextract/internal/metrics"
	"flashextract/internal/trace"
)

// layers accumulates the per-layer measurements of a traced phase. Each op
// (and each probe between ops) runs under the root span of its own
// internal/trace tracer; the benchmark wraps every public call it makes in
// a "call:<package>.<function>" span, the program adds its existing spans
// beneath, and the finished tree is folded into self time per layer.
type layers struct {
	self    map[string]time.Duration   // layer → self time
	spans   map[string]int64           // layer → span count
	calls   map[string][]time.Duration // wrapped call → durations
	count   map[string]int64           // named counters
	reg     *metrics.Registry          // serve and batch metrics
	dropped int64
	probe   time.Duration // wall time of probes between ops
}

func newLayers() *layers {
	return &layers{
		self:  map[string]time.Duration{},
		spans: map[string]int64{},
		calls: map[string][]time.Duration{},
		count: map[string]int64{},
		reg:   metrics.NewRegistry(),
	}
}

// startOp opens the root span of one op; the returned function ends and
// folds it.
func (l *layers) startOp(name string) (context.Context, func()) {
	tr := trace.NewTracer()
	ctx, root := tr.StartRoot(context.Background(), name)
	return ctx, func() {
		root.End()
		l.fold(root)
		l.dropped += tr.Dropped()
	}
}

// probeCall runs f outside any op, under its own root span, and keeps its
// wall time out of the traced phase's clock.
func (l *layers) probeCall(name string, f func(ctx context.Context)) {
	t0 := time.Now()
	ctx, done := l.startOp("probe")
	call(ctx, name, f)
	done()
	l.probe += time.Since(t0)
}

// call runs f inside a "call:<name>" span under the context's span. With
// no span in the context (untraced phases) it just runs f.
func call(ctx context.Context, name string, f func(ctx context.Context)) {
	ctx, sp := trace.Start(ctx, "call:"+name)
	f(ctx)
	sp.End()
}

// layerOf maps a span name to the layer it measures.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "call:"):
		return "bench"
	case name == "validate" || name == "validate_worker":
		return "engine.validate"
	case strings.HasPrefix(name, "map:"):
		return "core.map"
	case name == "filter_bool" || name == "filter_int":
		return "core.filter"
	case name == "merge":
		return "core.merge"
	case name == "pair":
		return "core.pair"
	case name == "union" || name == "union_scalar":
		return "core.union"
	case name == "cleanup":
		return "core.cleanup"
	case name == "ls_replay":
		return "textlang.ls_replay"
	}
	return "other"
}

// fold adds a finished span tree to the layer totals. A span's self time
// is its duration minus the part of its interval its children cover
// (children of parallel validation overlap, so their union is taken).
func (l *layers) fold(s *trace.Span) {
	if s == nil {
		return
	}
	name := s.Name()
	if fn, ok := strings.CutPrefix(name, "call:"); ok {
		l.calls[fn] = append(l.calls[fn], s.Duration())
	}
	kids := s.Children()
	layer := layerOf(name)
	l.self[layer] += s.Duration() - covered(s, kids)
	l.spans[layer]++
	for _, k := range kids {
		l.fold(k)
	}
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent *trace.Span, kids []*trace.Span) time.Duration {
	lo, hi := parent.Start(), parent.Start().Add(parent.Duration())
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start(), k.Start().Add(k.Duration())
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// addSession folds one finished session's counters in.
func (l *layers) addSession(st engine.SessionStats) {
	l.count["learn_calls"] += st.LearnCalls
	l.count["incremental_hits"] += st.IncrementalHits
	l.count["partial_results"] += st.PartialResults
	l.count["candidates_explored"] += st.CandidatesExplored
	l.count["learner_fanout"] += st.LearnerFanout
	l.count["candidates_pruned"] += st.CandidatesPruned
	l.count["abstraction_refinements"] += st.AbstractionRefinements
	l.count["cache_hits"] += st.Cache.Hits
	l.count["cache_misses"] += st.Cache.Misses
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics renders the per-layer metrics. kinds are the LearnContext
// latencies of the untraced passes by step kind, tracedOps the ops of the
// traced passes, and overhead the untraced ÷ traced ops per second of
// neighbouring passes. A layer the workload does not reach reports 0.
func (l *layers) metrics(kinds [numStepKinds][]time.Duration, tracedOps int, overhead float64) map[string]metric {
	ops := float64(tracedOps)
	c := func(name string) float64 { return float64(l.count[name]) }
	perOp := func(name string) metric { return metric{ratio(c(name), ops), "count/op"} }
	selfMS := func(layer string) metric { return metric{ratio(ms(l.self[layer]), ops), "ms/op"} }
	p50 := func(samples []time.Duration) float64 {
		v, _ := nearestRank(samples, 0.5)
		return ms(v)
	}
	snap := l.reg.Snapshot()
	requests := float64(snap.Counters[metrics.ServeRequests])
	return map[string]metric{
		"engine.learn_first_ms":           {p50(kinds[stepFirst]), "ms"},
		"engine.learn_confirm_ms":         {p50(kinds[stepConfirm]), "ms"},
		"engine.learn_correct_ms":         {p50(kinds[stepCorrect]), "ms"},
		"engine.incremental_hit_ratio":    {ratio(c("incremental_hits"), c("confirm_steps")), "ratio"},
		"engine.learns_per_op":            perOp("learn_calls"),
		"engine.validate_self_ms":         selfMS("engine.validate"),
		"engine.partial_results":          {c("partial_results"), "count"},
		"engine.program_load_ms":          {p50(l.calls["engine.LoadSchemaProgram"]), "ms"},
		"engine.run_ms":                   {p50(l.calls["engine.RunContext"]), "ms"},
		"core.candidates_explored_per_op": perOp("candidates_explored"),
		"core.learner_fanout_per_op":      perOp("learner_fanout"),
		"core.map_self_ms":                selfMS("core.map"),
		"core.filter_self_ms":             selfMS("core.filter"),
		"core.merge_self_ms":              selfMS("core.merge"),
		"core.pair_self_ms":               selfMS("core.pair"),
		"core.union_self_ms":              selfMS("core.union"),
		"core.cleanup_self_ms":            selfMS("core.cleanup"),
		"abstract.pruned_per_op":          perOp("candidates_pruned"),
		"abstract.refinements_per_op":     perOp("abstraction_refinements"),
		"abstract.prune_ratio":            {ratio(c("candidates_pruned"), c("candidates_explored")), "ratio"},
		"tokens.cache_hits_per_op":        perOp("cache_hits"),
		"tokens.cache_misses_per_op":      perOp("cache_misses"),
		"tokens.cache_hit_ratio":          {ratio(c("cache_hits"), c("cache_hits")+c("cache_misses")), "ratio"},
		"textlang.parse_ms":               {p50(l.calls["textlang.NewDocument"]), "ms"},
		"weblang.parse_ms":                {p50(l.calls["weblang.NewDocument"]), "ms"},
		"sheetlang.parse_ms":              {p50(l.calls["sheetlang.FromCSV"]), "ms"},
		"textlang.ls_replays_per_op":      {ratio(float64(l.spans["textlang.ls_replay"]), ops), "count/op"},
		"textlang.ls_replay_self_ms":      selfMS("textlang.ls_replay"),
		"serve.frame_ms":                  {snap.Histograms[metrics.ServeFrameSeconds].P50 * 1000, "ms"},
		"serve.compiles_per_request":      {ratio(c("compiles"), requests), "count/request"},
		"serve.errors_per_request":        {ratio(float64(snap.Counters[metrics.ServeErrors]), requests), "count/request"},
		"batch.run_ms":                    {p50(l.calls["batch.Run"]), "ms"},
		"batch.doc_run_ms":                {snap.Histograms[metrics.BatchDocSeconds].P50 * 1000, "ms"},
		"prefilter.skip_ratio":            {ratio(float64(snap.Counters[metrics.BatchPrefilterSkipped]), c("unrelated_docs")), "ratio"},
		"prefilter.admit_us":              {p50(l.calls["prefilter.Admit"]) * 1000, "us"},
		"export.render_ms":                {p50(l.calls["export.JSONValue"]), "ms"},
		"trace.overhead_ratio":            {overhead, "ratio"},
		"trace.dropped_spans":             {float64(l.dropped), "count"},
	}
}
