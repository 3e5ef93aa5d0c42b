package main

import (
	"context"
	"fmt"

	"flashextract/internal/engine"
	"flashextract/internal/region"
	"flashextract/internal/schema"
)

const (
	// logRecords is the size of every log-synth document.
	logRecords = 100
	// logsPerPass is the op count of one log-synth pass.
	logsPerPass = 4
	// logInputs is the length of the seeded input list; passes walk it in
	// order and wrap around.
	logInputs = 64
)

// logSynth is first synthesis on large text: an op takes one freshly
// generated DataNode log to golden for both fields of the hadoop-xl
// schema, with the session replay of refine-corpus.
type logSynth struct {
	sch  *schema.Schema
	logs []genLog
}

func (w *logSynth) setupReps() int        { return 9 }
func (w *logSynth) tail() (float64, bool) { return 0.9, true }
func (w *logSynth) close()                {}

func (w *logSynth) setup(seed uint64) error {
	sch, err := schema.Parse(dataNodeSchema)
	if err != nil {
		return err
	}
	w.sch = sch
	// Log i has the same sequence of WARN and INFO records under every
	// seed; the seed draws its times, components and messages. Where the
	// WARN records fall decides how many examples a session needs, so
	// fixing it keeps a run's mix of session lengths the same across
	// seeds.
	w.logs = make([]genLog, logInputs)
	for i := range w.logs {
		w.logs[i] = generateLog(newRNG(seed, 2, uint64(i)), newRNG(uint64(i), 5), logRecords)
	}
	return nil
}

func (w *logSynth) prepare(p int, rec *recorder) (func() error, error) {
	tasks := make([]logTask, logsPerPass)
	for i := range tasks {
		l := w.logs[(p*logsPerPass+i)%len(w.logs)]
		if rec.layers != nil {
			rec.layers.probeCall("textlang.NewDocument", func(context.Context) { tasks[i] = openLog(l, w.sch) })
			continue
		}
		tasks[i] = openLog(l, w.sch)
	}
	return func() error {
		for i, t := range tasks {
			ctx, done := rec.startOp()
			s := engine.NewSession(t.doc, t.schema)
			learn := func(s *engine.Session, kind stepKind, color string) ([]region.Region, error) {
				return timedLearn(ctx, rec, s, kind, color)
			}
			n := p*logsPerPass + i
			_ = rec.op(func() error {
				if err := replaySession(s, t.golden, learn); err != nil {
					return fmt.Errorf("log %d: %w", n, err)
				}
				return nil
			})
			done()
			if rec.layers != nil {
				rec.layers.addSession(s.Stats())
			}
		}
		return nil
	}, nil
}
