// Command perfbench is the repository benchmark: it replays seeded
// FlashExtract workloads through the public functions of the engine,
// serve, batch, prefilter, export and DSL packages, checks every output
// against an independent reference, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1) as the
// last line of standard output. BENCHMARK.json at the repository root
// lists the workloads and metrics; README.md in this directory explains
// them. Run it through run.sh, which builds it from the checkout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// workload is one benchmark workload. Set-up runs before anything is
// timed and may be repeated; each pass then rebuilds its inputs (untimed)
// and returns the timed part, so every pass starts cold.
type workload interface {
	// setup generates the run's inputs from the seed (and, for
	// serve-extract, learns, saves and loads the programs).
	setup(seed uint64) error
	// setupReps is the least number of times set-up runs; setup_s is
	// their median.
	setupReps() int
	// prepare builds the inputs of pass p and returns the timed pass.
	prepare(p int, rec *recorder) (func() error, error)
	// tail names the percentile tail_ms reports, and whether it is taken
	// over LearnContext calls instead of ops (when a run holds too few
	// ops for a tail).
	tail() (q float64, learns bool)
	// close releases what set-up created.
	close()
}

func main() {
	name := flag.String("workload", "", "workload: refine-corpus, log-synth or serve-extract")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "timed seconds of the run")
	traced := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	scratch := flag.String("scratch", ".bench_build/tmp", "directory for files the run writes")
	flag.Parse()
	if *traced != 0 && *traced != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1 and --seconds must be positive")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *traced == 1, *scratch); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name, scratch string) (workload, error) {
	switch name {
	case "refine-corpus":
		return &refineCorpus{}, nil
	case "log-synth":
		return &logSynth{}, nil
	case "serve-extract":
		return &serveExtract{scratch: scratch}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed uint64, seconds float64, traced bool, scratch string) error {
	if err := selfTest(); err != nil {
		return fmt.Errorf("checker self-test: %w", err)
	}
	w, err := newWorkload(name, scratch)
	if err != nil {
		return err
	}
	defer w.close()
	fmt.Printf("env commit=%s go=%s gomaxprocs=%d nproc=%d cpu=%q workload=%s seed=%d seconds=%g trace=%v\n",
		commitID(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), name, seed, seconds, traced)

	// Set-up repeats at least setupReps times, and while the repetitions
	// so far took under half a second, so a short set-up's median still
	// rests on many samples.
	var setups []float64
	for total := 0.0; len(setups) < w.setupReps() || total < 0.5 && len(setups) < 200; {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[len(setups)-1]
	}

	rec := &recorder{}
	var metrics map[string]metric
	if traced {
		// Untraced and traced passes alternate on the same inputs. The
		// untraced ones give the learn latencies by step kind; each
		// neighbouring pair gives one sample of trace.overhead_ratio.
		rec.layers = newLayers()
		plain := &recorder{}
		tph, overhead, err := measurePaired(w, seconds, plain, rec)
		if err != nil {
			return err
		}
		metrics = rec.layers.metrics(plain.kindLat, tph.ops, overhead)
		rec.attempted += plain.attempted
		rec.failed += plain.failed
		rec.wrong += plain.wrong
	} else {
		steal0 := stealSeconds()
		ph, err := measure(w, seconds, rec)
		if err != nil {
			return err
		}
		fmt.Printf("machine steal_s=%.2f during %.1f s of timed passes\n", stealSeconds()-steal0, ph.wall.Seconds())
		q, learns := w.tail()
		samples, of := rec.lat, "ops"
		if learns {
			samples, of = rec.learnLat, "LearnContext calls"
		}
		p50, _ := nearestRank(rec.lat, 0.5)
		tail, beyond := nearestRank(samples, q)
		fmt.Printf("samples p50_ms=p50 of %d ops; tail_ms=p%g of %d %s (%d beyond)\n",
			len(rec.lat), q*100, len(samples), of, beyond)
		fmt.Printf("LearnContext calls by step: first=%d confirm=%d correct=%d\n",
			len(rec.kindLat[stepFirst]), len(rec.kindLat[stepConfirm]), len(rec.kindLat[stepCorrect]))
		if beyond < 10 {
			fmt.Printf("warning: tail_ms has only %d samples beyond it\n", beyond)
		}
		if se, ok := w.(*serveExtract); ok {
			se.reportMix(rec.lat, tail)
		}
		metrics = map[string]metric{
			"setup_s":         {medianFloat(setups), "s"},
			"ops_per_s":       {float64(ph.ops) / ph.wall.Seconds(), "1/s"},
			"p50_ms":          {ms(p50), "ms"},
			"tail_ms":         {ms(tail), "ms"},
			"alloc_mb_per_op": {float64(ph.alloc) / 1e6 / float64(ph.ops), "MB"},
			"peak_rss_mb":     {ph.peakRSS / 1e6, "MB"},
		}
	}
	res := result{
		Correct:   rec.wrong == 0 && rec.attempted > 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   metrics,
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// recorder collects the ops of a run. An op is attempted when it starts
// and failed when it errors or its output fails its check. The result is
// correct when no op's output failed its check; an op whose LearnContext
// call returned an error (a learnError) fails without being wrong.
type recorder struct {
	lat       []time.Duration // latency of every op
	learnLat  []time.Duration // latency of every LearnContext call
	kindLat   [numStepKinds][]time.Duration
	attempted int
	failed    int
	wrong     int
	// layers is non-nil during the traced phase of a traced run.
	layers *layers
}

// op runs and times one op.
func (r *recorder) op(f func() error) error {
	r.attempted++
	t0 := time.Now()
	err := f()
	r.lat = append(r.lat, time.Since(t0))
	if err != nil {
		r.failed++
		if !errors.As(err, new(learnError)) {
			r.wrong++
		}
		fmt.Fprintln(os.Stderr, "failed op:", err)
	}
	return err
}

// fail counts a failed op whose output failed its check after the op
// returned (a field that did not converge, a wrong record).
func (r *recorder) fail(err error) {
	r.failed++
	r.wrong++
	fmt.Fprintln(os.Stderr, "failed op:", err)
}

// learned records one LearnContext call of a replay step.
func (r *recorder) learned(kind stepKind, d time.Duration) {
	r.learnLat = append(r.learnLat, d)
	r.kindLat[kind] = append(r.kindLat[kind], d)
}

// startOp opens the root span of one op in the traced phase; the returned
// function ends and folds it. Untraced, it is a no-op.
func (r *recorder) startOp() (context.Context, func()) {
	if r.layers == nil {
		return context.Background(), func() {}
	}
	return r.layers.startOp("op")
}

// probeTime is the time the traced phase spent in probe calls made
// between ops, which its wall clock leaves out.
func (r *recorder) probeTime() time.Duration {
	if r.layers == nil {
		return 0
	}
	return r.layers.probe
}

// phase is what one pass, or a sequence of passes, measured.
type phase struct {
	ops     int
	wall    time.Duration // timed wall clock, excluding untimed probes
	elapsed time.Duration // wall clock, including untimed probes
	alloc   uint64
	peakRSS float64 // bytes; of a sequence, the median of its passes' peaks
}

func (ph *phase) add(p phase) {
	ph.ops += p.ops
	ph.wall += p.wall
	ph.elapsed += p.elapsed
	ph.alloc += p.alloc
}

// measure runs whole passes until their wall clock reaches seconds. The
// kernel's resident-set high-water mark is reset before each pass and read
// after it; peakRSS is the median of these per-pass peaks.
func measure(w workload, seconds float64, rec *recorder) (phase, error) {
	var ph phase
	var peaks []float64
	// The budget counts probe time too, so a traced pass is no longer
	// than an untraced one.
	budget := time.Duration(seconds * float64(time.Second))
	for p := 0; ph.elapsed < budget; p++ {
		ps, err := runPass(w, p, rec)
		if err != nil {
			return ph, err
		}
		ph.add(ps)
		peaks = append(peaks, ps.peakRSS)
	}
	ph.peakRSS = medianFloat(peaks)
	return ph, nil
}

// measurePaired runs pairs of passes on the same inputs, one recorded by
// plain and one by traced, until their wall clock reaches twice seconds.
// The pairs alternate which pass runs first, so neither sees the warmer
// process more often. It returns the traced passes' measurements and the
// median over pairs of untraced ÷ traced ops per second.
func measurePaired(w workload, seconds float64, plain, traced *recorder) (phase, float64, error) {
	var ph phase
	var ratios []float64
	budget := time.Duration(2 * seconds * float64(time.Second))
	var elapsed time.Duration
	for p := 0; elapsed < budget; p++ {
		order := [2]*recorder{plain, traced}
		if p%2 == 1 {
			order = [2]*recorder{traced, plain}
		}
		var u, t phase
		for _, rec := range order {
			ps, err := runPass(w, p, rec)
			if err != nil {
				return ph, 0, err
			}
			elapsed += ps.elapsed
			if rec == traced {
				t = ps
			} else {
				u = ps
			}
		}
		ph.add(t)
		ratios = append(ratios, ratio(float64(u.ops)/u.wall.Seconds(), float64(t.ops)/t.wall.Seconds()))
	}
	return ph, medianFloat(ratios), nil
}

// runPass builds the inputs of pass p, untimed, and runs it. A GC that
// also returns freed memory to the OS comes between, so no pass inherits
// warm caches, garbage or resident pages from the one before.
func runPass(w workload, p int, rec *recorder) (phase, error) {
	var ps phase
	pass, err := w.prepare(p, rec)
	if err != nil {
		return ps, fmt.Errorf("pass %d inputs: %w", p, err)
	}
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return ps, fmt.Errorf("resetting peak RSS: %w", err)
	}
	ops0 := len(rec.lat)
	a0 := totalAlloc()
	probe0 := rec.probeTime()
	t0 := time.Now()
	if err := pass(); err != nil {
		return ps, fmt.Errorf("pass %d: %w", p, err)
	}
	ps.elapsed = time.Since(t0)
	ps.wall = ps.elapsed - (rec.probeTime() - probe0)
	ps.alloc = totalAlloc() - a0
	ps.ops = len(rec.lat) - ops0
	rss, err := peakRSSBytes()
	if err != nil {
		return ps, fmt.Errorf("reading peak RSS: %w", err)
	}
	ps.peakRSS = float64(rss)
	return ps, nil
}
