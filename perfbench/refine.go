package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"flashextract/internal/bench/corpus"
	"flashextract/internal/engine"
	"flashextract/internal/region"
)

// refineCorpus replays a user session over every field of the 75 paper
// documents. An op is one Session.LearnContext call; a pass is one session
// per document, in a document order drawn per pass from the seed. A run
// spans many orders, so where the garbage collector happens to run during
// a pass averages out instead of following the seed.
type refineCorpus struct {
	seed uint64
}

func (w *refineCorpus) setupReps() int        { return 9 }
func (w *refineCorpus) tail() (float64, bool) { return 0.99, false }
func (w *refineCorpus) close()                {}

func (w *refineCorpus) setup(seed uint64) error {
	n := len(corpus.All())
	if n != 75 {
		return fmt.Errorf("corpus holds %d documents, want 75", n)
	}
	w.seed = seed
	return nil
}

// permutation is a seeded Fisher-Yates shuffle of 0..n-1.
func permutation(r *rng, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func (w *refineCorpus) prepare(p int, rec *recorder) (func() error, error) {
	// Regenerating the corpus rebuilds every document, so no pass starts
	// on the evaluation caches of the one before.
	tasks := corpus.All()
	order := permutation(newRNG(w.seed, 1, uint64(p)), len(tasks))
	return func() error {
		for _, i := range order {
			t := tasks[i]
			s := engine.NewSession(t.Doc, t.Schema)
			// A LearnContext error already failed its op; only a field
			// that did not converge fails here.
			if err := replaySession(s, t.Golden, w.learnOp(rec, t.Name)); err != nil && !errors.As(err, new(learnError)) {
				rec.fail(fmt.Errorf("%s: %w", t.Name, err))
			}
			if rec.layers != nil {
				rec.layers.addSession(s.Stats())
			}
		}
		return nil
	}, nil
}

// learnOp makes each LearnContext call one op.
func (w *refineCorpus) learnOp(rec *recorder, task string) learnFunc {
	return func(s *engine.Session, kind stepKind, color string) ([]region.Region, error) {
		ctx, done := rec.startOp()
		var out []region.Region
		err := rec.op(func() error {
			var err error
			out, err = timedLearn(ctx, rec, s, kind, color)
			if err != nil {
				err = fmt.Errorf("%s: field %s: %w", task, color, err)
			}
			return err
		})
		done()
		return out, err
	}
}

// timedLearn runs and times one replay step's LearnContext call.
func timedLearn(ctx context.Context, rec *recorder, s *engine.Session, kind stepKind, color string) ([]region.Region, error) {
	if kind == stepConfirm && rec.layers != nil {
		rec.layers.count["confirm_steps"]++
	}
	var out []region.Region
	var err error
	t0 := time.Now()
	call(ctx, "engine.LearnContext", func(ctx context.Context) {
		_, out, _, err = s.LearnContext(ctx, color)
	})
	rec.learned(kind, time.Since(t0))
	if err != nil {
		return nil, learnError{err}
	}
	return out, nil
}
