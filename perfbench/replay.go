package main

import (
	"context"
	"fmt"

	"flashextract/internal/engine"
	"flashextract/internal/region"
)

// stepKind classifies one LearnContext call of a replayed session.
type stepKind int

const (
	// stepFirst learns from the field's first golden instance.
	stepFirst stepKind = iota
	// stepConfirm adds the second golden instance in document order.
	stepConfirm
	// stepCorrect adds the example the §6 rule picks from the first
	// mismatch between the highlighting and the golden instances.
	stepCorrect
	numStepKinds
)

// maxIterations bounds the LearnContext calls of one field; a field still
// off golden after it counts as a failed op.
const maxIterations = 24

// learnError is an error LearnContext returned. The op it belongs to
// fails, but it returned no output that a check found wrong.
type learnError struct{ error }

func (e learnError) Unwrap() error { return e.error }

// learnFunc performs one replay step's LearnContext call and returns the
// highlighting it infers.
type learnFunc func(s *engine.Session, kind stepKind, color string) ([]region.Region, error)

// plainLearn is the learnFunc of untimed replays (serve-extract set-up).
func plainLearn(s *engine.Session, _ stepKind, color string) ([]region.Region, error) {
	_, out, _, err := s.LearnContext(context.Background(), color)
	return out, err
}

// replaySession plays the user of the paper's Fig. 2 loop over every field
// of the session's schema, top-down so that descendants learn relative to
// their committed ancestors: each field is taken to its golden
// highlighting and committed.
func replaySession(s *engine.Session, golden map[string][]region.Region, learn learnFunc) error {
	for _, fi := range s.Schema().Fields() {
		color := fi.Color()
		if err := replayField(s, color, golden[color], learn); err != nil {
			return fmt.Errorf("field %s: %w", color, err)
		}
		if err := s.Commit(color); err != nil {
			return fmt.Errorf("field %s: %w", color, err)
		}
	}
	return nil
}

// replayField confirms the first two golden instances, then applies the
// §6 rule until the highlighting equals golden: the correctly highlighted
// regions before the first mismatch become positives, and the mismatch
// becomes a positive (a missed instance, or the golden extent a wrongly
// drawn region overlaps) or a negative (a spurious region). A call that
// finds no program fails the field.
func replayField(s *engine.Session, color string, golden []region.Region, learn learnFunc) error {
	if len(golden) == 0 {
		return fmt.Errorf("no golden instances")
	}
	golden = append([]region.Region(nil), golden...)
	region.Sort(golden)
	var positives []region.Region
	addPositive := func(r region.Region) error {
		if !containsRegion(positives, r) {
			positives = append(positives, r)
		}
		return s.AddPositive(color, r)
	}
	if err := addPositive(golden[0]); err != nil {
		return err
	}
	out, err := learn(s, stepFirst, color)
	if err != nil {
		return err
	}
	iter := 1
	if len(golden) >= 2 {
		if err := addPositive(golden[1]); err != nil {
			return err
		}
		if out, err = learn(s, stepConfirm, color); err != nil {
			return err
		}
		iter++
	}
	for {
		missing, spurious, prefix := firstMismatch(golden, out)
		if missing == nil && spurious == nil {
			return nil
		}
		if iter >= maxIterations {
			return fmt.Errorf("no convergence within %d iterations", maxIterations)
		}
		for _, r := range prefix {
			if err := addPositive(r); err != nil {
				return err
			}
		}
		switch {
		case missing != nil:
			err = addPositive(missing)
		default:
			if g := overlappingGolden(golden, positives, spurious); g != nil {
				err = addPositive(g)
			} else {
				err = s.AddNegative(color, spurious)
			}
		}
		if err != nil {
			return err
		}
		if out, err = learn(s, stepCorrect, color); err != nil {
			return err
		}
		iter++
	}
}

// firstMismatch walks golden and out in document order and returns the
// first golden region missing from out, or the first region of out that is
// not golden, with the correctly highlighted regions before it.
func firstMismatch(golden, out []region.Region) (missing, spurious region.Region, prefix []region.Region) {
	i, j := 0, 0
	for i < len(golden) && j < len(out) {
		if golden[i] == out[j] {
			prefix = append(prefix, out[j])
			i++
			j++
			continue
		}
		if out[j].Less(golden[i]) {
			return nil, out[j], prefix
		}
		return golden[i], nil, prefix
	}
	if i < len(golden) {
		return golden[i], nil, prefix
	}
	if j < len(out) {
		return nil, out[j], prefix
	}
	return nil, nil, prefix
}

// overlappingGolden returns a golden region overlapping r that is not yet
// a positive, or nil.
func overlappingGolden(golden, positives []region.Region, r region.Region) region.Region {
	for _, g := range golden {
		if g != r && g.Overlaps(r) && !containsRegion(positives, g) {
			return g
		}
	}
	return nil
}

func containsRegion(rs []region.Region, r region.Region) bool {
	for _, x := range rs {
		if x == r {
			return true
		}
	}
	return false
}
