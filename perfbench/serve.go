package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"flashextract/internal/batch"
	"flashextract/internal/bench"
	"flashextract/internal/bench/corpus"
	"flashextract/internal/engine"
	"flashextract/internal/export"
	"flashextract/internal/prefilter"
	"flashextract/internal/schema"
	"flashextract/internal/serve"
	"flashextract/internal/sheetlang"
	"flashextract/internal/textlang"
	"flashextract/internal/weblang"
)

// requestsPerPass is the op count of one serve-extract pass.
const requestsPerPass = 200

// serveExtract is the saved-program run path: one closed-loop client sends
// scan_batch requests to serve.Server.HandleLine. Set-up learns the 75
// corpus programs with the refine-corpus replay, saves them, and loads
// them into a registry; 75 programs exceed the compiled-program LRU cap.
//
// The request mix is an assumption, not a measurement: no traffic of
// FlashExtract users has been recorded. Popularity follows Zipf's law
// with exponent 1 (weight 1/rank), ranks in corpus order.
type serveExtract struct {
	scratch string
	seed    uint64
	dir     string
	progs   []*servedProgram // by popularity rank
	cum     []float64        // cumulative Zipf weights of progs
	reg     *serve.Registry
	srv     *serve.Server
	traced  *serve.Server    // the server of traced passes, recording metrics
	sent    []*servedProgram // the program of every op, in order
}

// servedProgram is one saved program and the references its outputs are
// checked against.
type servedProgram struct {
	name    string
	docType string
	sch     *schema.Schema
	raw     []byte
	rank    int                 // popularity rank, from 1
	source  string              // its own corpus document
	padding bool                // whether padding is unrelated to it
	values  map[string][]string // golden leaf values of source
	filter  *prefilter.Filter   // built on first traced use
}

func (w *serveExtract) setupReps() int        { return 3 }
func (w *serveExtract) tail() (float64, bool) { return 0.99, false }

func (w *serveExtract) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// workers caps the serve worker pool at two, and at nproc below that.
func workers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func (w *serveExtract) setup(seed uint64) error {
	w.close()
	w.seed = seed
	if err := os.MkdirAll(w.scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.scratch, "serve-programs-")
	if err != nil {
		return err
	}
	w.dir = dir
	var progs []*servedProgram
	for i, t := range corpus.All() {
		s := engine.NewSession(t.Doc, t.Schema)
		if err := replaySession(s, t.Golden, plainLearn); err != nil {
			return fmt.Errorf("learning %s: %w", t.Name, err)
		}
		p, err := w.save(s, fmt.Sprintf("c%02d-%s", i, fileSafe(t.Name)), t.Domain)
		if err != nil {
			return err
		}
		p.source, p.values = t.Source, goldenLeafValues(t.Schema, t.Golden)
		p.padding = paddingRelated[t.Name] == ""
		p.rank = i + 1
		progs = append(progs, p)
	}
	w.progs = progs
	w.cum = make([]float64, len(w.progs))
	total := 0.0
	for i := range w.progs {
		total += 1 / float64(i+1)
		w.cum[i] = total
	}
	w.reg = serve.NewRegistry(dir, 0)
	if _, _, err := w.reg.Load(); err != nil {
		return err
	}
	w.srv, err = serve.New(serve.Options{Registry: w.reg, Workers: workers(), Prefilter: true})
	w.traced = nil
	return err
}

// save writes a finished session's program as <name>@1.<docType>.json.
func (w *serveExtract) save(s *engine.Session, name, docType string) (*servedProgram, error) {
	q, err := s.Program()
	if err != nil {
		return nil, err
	}
	raw, err := engine.SaveSchemaProgram(q, s.Document().Language())
	if err != nil {
		return nil, err
	}
	path := filepath.Join(w.dir, fmt.Sprintf("%s@1.%s.json", name, docType))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return nil, err
	}
	return &servedProgram{name: name, docType: docType, sch: s.Schema(), raw: raw}, nil
}

// paddingRelated lists the corpus tasks whose learned programs do extract
// from bench.PaddingDocs text, so padding is not an unrelated document for
// them and gets no "extracts nothing" reference. Their programs select by
// position within any line of words, which padding prose is made of.
var paddingRelated = map[string]string{
	"split": "records are lines; padding lines are records too",
	"awk":   "names are the first word of each line",
	"mgx":   "values are the last word of a line; on padding the Int field fails its type check",
}

func fileSafe(s string) string {
	return strings.Map(func(c rune) rune {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' {
			return c
		}
		return '_'
	}, s)
}

// request is one prepared scan_batch frame with its references.
type request struct {
	prog *servedProgram
	line []byte
	docs []serve.Doc
	want []expectedDoc
}

// drawPrograms picks the programs of one pass's requests by systematic
// sampling of the Zipf weights (one seeded offset), so every pass holds
// each program's share of requests up to rounding, and shuffles them into
// a seeded order.
func (w *serveExtract) drawPrograms(r *rng, n int) []*servedProgram {
	u := float64(r.next()>>11) / (1 << 53)
	total := w.cum[len(w.cum)-1]
	picks := make([]*servedProgram, n)
	i := 0
	for k := range picks {
		x := (u + float64(k)) / float64(n) * total
		for i < len(w.cum)-1 && w.cum[i] <= x {
			i++
		}
		picks[k] = w.progs[i]
	}
	for k := n - 1; k > 0; k-- {
		j := r.intn(k + 1)
		picks[k], picks[j] = picks[j], picks[k]
	}
	return picks
}

// prepare draws the pass's requests: each names a program (Zipf-skewed,
// see drawPrograms) and carries one to four documents. About one document
// in five is unrelated padding the program extracts nothing from (for the
// programs padding is unrelated to, see paddingRelated); the rest are the
// program's own corpus document.
func (w *serveExtract) prepare(p int, rec *recorder) (func() error, error) {
	r := newRNG(w.seed, 4, uint64(p))
	reqs := make([]request, requestsPerPass)
	for j, prog := range w.drawPrograms(r, requestsPerPass) {
		rq := request{prog: prog}
		n := 1 + r.intn(4)
		for d := 0; d < n; d++ {
			name := fmt.Sprintf("d%d", d)
			if prog.padding && r.intn(5) == 0 {
				pad := bench.PaddingDocs(prog.docType, 1, r.next())[0]
				rq.docs = append(rq.docs, serve.Doc{Name: name, Content: pad.Content})
				rq.want = append(rq.want, expectedDoc{name: name})
				if rec.layers != nil {
					rec.layers.count["unrelated_docs"]++
				}
				continue
			}
			rq.docs = append(rq.docs, serve.Doc{Name: name, Content: prog.source})
			rq.want = append(rq.want, expectedDoc{name: name, values: prog.values})
		}
		line, err := json.Marshal(serve.Request{ID: fmt.Sprint(j), Op: serve.OpScanBatch, Program: prog.name, Docs: rq.docs})
		if err != nil {
			return nil, err
		}
		rq.line = line
		reqs[j] = rq
	}
	srv := w.srv
	if rec.layers != nil {
		if w.traced == nil {
			var err error
			w.traced, err = serve.New(serve.Options{Registry: w.reg, Workers: workers(), Prefilter: true, Metrics: rec.layers.reg})
			if err != nil {
				return nil, err
			}
		}
		srv = w.traced
	}
	return func() error {
		compiles0 := w.compiles()
		for _, rq := range reqs {
			ctx, done := rec.startOp()
			var resp serve.Response
			_ = rec.op(func() error {
				call(ctx, "serve.HandleLine", func(ctx context.Context) { resp = srv.HandleLine(ctx, rq.line) })
				return nil
			})
			done()
			w.sent = append(w.sent, rq.prog)
			if err := checkResponse(rq, resp); err != nil {
				rec.fail(fmt.Errorf("request %s on %s: %w", resp.ID, rq.prog.name, err))
			}
			if rec.layers != nil {
				if err := w.probe(rec.layers, rq, resp); err != nil {
					rec.fail(fmt.Errorf("request %s on %s: %w", resp.ID, rq.prog.name, err))
				}
			}
		}
		if rec.layers != nil {
			rec.layers.count["compiles"] += w.compiles() - compiles0
		}
		return nil
	}, nil
}

// reportMix prints the share of requests per domain and for programs
// ranked beyond the compiled-program LRU cap, over all requests and over
// those at or beyond the tail latency.
func (w *serveExtract) reportMix(lat []time.Duration, tail time.Duration) {
	share := func(beyond bool) string {
		beyondCap := fmt.Sprintf("rank>%d", serve.DefaultCompiledCap)
		count := map[string]int{}
		n := 0
		for i, d := range lat {
			if beyond && d < tail {
				continue
			}
			n++
			count[w.sent[i].docType]++
			if w.sent[i].rank > serve.DefaultCompiledCap {
				count[beyondCap]++
			}
		}
		var b strings.Builder
		fmt.Fprintf(&b, "n=%d", n)
		for _, k := range []string{"text", "web", "sheet", beyondCap} {
			fmt.Fprintf(&b, " %s=%.3f", k, ratio(float64(count[k]), float64(n)))
		}
		return b.String()
	}
	fmt.Printf("mix (Zipf exponent 1 over 75 programs in corpus order, assumed): requests %s; at or beyond tail_ms %s\n", share(false), share(true))
}

func checkResponse(rq request, resp serve.Response) error {
	if !resp.OK {
		if resp.Error != nil {
			return fmt.Errorf("%s: %s", resp.Error.Code, resp.Error.Message)
		}
		return fmt.Errorf("response not ok")
	}
	if err := checkRecords(rq.prog.sch, rq.want, resp.Records); err != nil {
		return err
	}
	if resp.Summary == nil || resp.Summary.Errors != 0 {
		return fmt.Errorf("summary reports errors: %+v", resp.Summary)
	}
	return nil
}

// compiles is the registry's total of compiled-program LRU misses.
func (w *serveExtract) compiles() int64 {
	var n int64
	for _, e := range w.reg.List() {
		n += e.Compiles()
	}
	return n
}

// probe calls the layers under serve directly on a traced request's
// documents: batch.Run (whose records must equal the server's byte for
// byte), LoadSchemaProgram, and per document the prefilter admission
// test, parsing, RunContext and JSONValue.
func (w *serveExtract) probe(l *layers, rq request, resp serve.Response) error {
	prog := rq.prog
	sources := make([]batch.Source, len(rq.docs))
	for i, d := range rq.docs {
		sources[i] = batch.StringSource(d.Name, d.Content)
	}
	var buf bytes.Buffer
	var err error
	l.probeCall("batch.Run", func(ctx context.Context) {
		_, err = batch.Run(ctx, batch.Options{Program: prog.raw, DocType: prog.docType, Workers: workers(), Ordered: true, Prefilter: true}, sources, &buf)
	})
	if err != nil {
		return err
	}
	direct := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	if len(direct) != len(resp.Records) {
		return fmt.Errorf("batch.Run wrote %d records, the server %d", len(direct), len(resp.Records))
	}
	for i := range direct {
		if !bytes.Equal(direct[i], resp.Records[i]) {
			return fmt.Errorf("batch.Run record %d differs from the server's", i)
		}
	}
	lang, err := batch.LanguageFor(prog.docType)
	if err != nil {
		return err
	}
	var q *engine.SchemaProgram
	l.probeCall("engine.LoadSchemaProgram", func(context.Context) { q, err = engine.LoadSchemaProgram(prog.raw, lang) })
	if err != nil {
		return err
	}
	if prog.filter == nil {
		if prog.filter, err = prefilter.FromSchemaProgram(q, prog.docType); err != nil {
			return err
		}
	}
	for _, d := range rq.docs {
		l.probeCall("prefilter.Admit", func(context.Context) { prog.filter.Admit(d.Content) })
		var doc engine.Document
		l.probeCall(parseCall[prog.docType], func(context.Context) { doc, err = parse(prog.docType, d.Content) })
		if err != nil {
			return err
		}
		var inst *engine.Instance
		l.probeCall("engine.RunContext", func(ctx context.Context) { inst, _, err = q.RunContext(ctx, doc) })
		if err != nil {
			return err
		}
		l.probeCall("export.JSONValue", func(context.Context) { _, err = export.JSONValue(inst) })
		if err != nil {
			return err
		}
		if cs, ok := doc.(engine.CacheStatser); ok {
			st := cs.CacheStats()
			l.count["cache_hits"] += st.Hits
			l.count["cache_misses"] += st.Misses
		}
	}
	return nil
}

var parseCall = map[string]string{
	"text":  "textlang.NewDocument",
	"web":   "weblang.NewDocument",
	"sheet": "sheetlang.FromCSV",
}

func parse(docType, src string) (engine.Document, error) {
	switch docType {
	case "text":
		return textlang.NewDocument(src), nil
	case "web":
		return weblang.NewDocument(src)
	case "sheet":
		return sheetlang.FromCSV(src)
	}
	return nil, fmt.Errorf("unknown document type %q", docType)
}
