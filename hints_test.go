package telamalloc

// Tests for the decision-trace hint contract: AllocatePipeline exports the
// winning stage's trace, WithHints replays one as a first-try packing that
// skips the ladder (or, for Allocate, the search), and an unusable hint
// falls through to the cold path without changing the verdict.

import (
	"slices"
	"strings"
	"testing"
)

func TestPipelineExportsTraceAndReplaysIt(t *testing.T) {
	p := tightProblem(t)
	cold, err := AllocatePipeline(p, WithMaxSteps(100000))
	if err != nil {
		t.Fatalf("cold pipeline: %v", err)
	}
	if cold.Trace == nil || cold.Trace.Winner != StageSearch || len(cold.Trace.Offsets) != len(p.Buffers) {
		t.Fatalf("cold trace %+v, want the search win recorded in canonical order", cold.Trace)
	}
	if cold.HintReplayed {
		t.Fatalf("cold run claims a hint replay")
	}

	warm, err := AllocatePipeline(p, WithMaxSteps(100000), WithHints(cold.Trace))
	if err != nil {
		t.Fatalf("warm pipeline: %v", err)
	}
	if !warm.HintReplayed || warm.Winner != cold.Winner {
		t.Fatalf("warm result %+v, want a replay crediting the traced winner %q", warm, cold.Winner)
	}
	if err := warm.Solution.Validate(p); err != nil {
		t.Fatalf("replayed solution invalid: %v", err)
	}
	for _, rep := range warm.Stages {
		if !rep.Skipped || !strings.Contains(rep.SkipReason, "hint replay") {
			t.Errorf("stage %s: skipped=%v reason=%q, want the whole ladder skipped by the replay",
				rep.Stage, rep.Skipped, rep.SkipReason)
		}
	}
	if warm.Trace == nil || warm.Trace.Winner != cold.Trace.Winner {
		t.Errorf("warm trace %+v, want the hint re-exported for the next caller", warm.Trace)
	}
}

// The trace is order-invariant: a reordered copy of the problem replays the
// same trace through its own canonical permutation.
func TestPipelineHintReplayAcrossReordering(t *testing.T) {
	p := tightProblem(t)
	cold, err := AllocatePipeline(p, WithMaxSteps(100000))
	if err != nil {
		t.Fatalf("cold pipeline: %v", err)
	}
	q := Problem{Memory: p.Memory, Buffers: append([]Buffer(nil), p.Buffers...)}
	for i, j := 0, len(q.Buffers)-1; i < j; i, j = i+1, j-1 {
		q.Buffers[i], q.Buffers[j] = q.Buffers[j], q.Buffers[i]
	}
	warm, err := AllocatePipeline(q, WithMaxSteps(100000), WithHints(cold.Trace))
	if err != nil {
		t.Fatalf("reordered pipeline: %v", err)
	}
	if !warm.HintReplayed {
		t.Fatalf("reordered copy did not replay the trace")
	}
	if err := warm.Solution.Validate(q); err != nil {
		t.Fatalf("replayed solution invalid for the reordered copy: %v", err)
	}
}

// A hint that does not fit — wrong shape, corrupted offsets, or nil — must
// never change the verdict: the pipeline quietly runs cold.
func TestPipelineHintFallsThroughWhenUnusable(t *testing.T) {
	p := tightProblem(t)
	cold, err := AllocatePipeline(p, WithMaxSteps(100000))
	if err != nil {
		t.Fatalf("cold pipeline: %v", err)
	}

	overlapping := &DecisionTrace{Winner: cold.Trace.Winner, Shape: cold.Trace.Shape,
		Offsets: make([]int64, len(cold.Trace.Offsets))} // all zero: co-live buffers collide
	wrongShape := &DecisionTrace{Winner: cold.Trace.Winner, Shape: "not-a-real-shape",
		Offsets: append([]int64(nil), cold.Trace.Offsets...)}
	truncated := &DecisionTrace{Winner: cold.Trace.Winner, Shape: cold.Trace.Shape,
		Offsets: cold.Trace.Offsets[:1]}
	for name, hint := range map[string]*DecisionTrace{
		"overlapping": overlapping, "wrong shape": wrongShape, "truncated": truncated, "nil": nil,
	} {
		res, rerr := AllocatePipeline(p, WithMaxSteps(100000), WithHints(hint))
		if rerr != nil {
			t.Fatalf("%s hint: %v", name, rerr)
		}
		if res.HintReplayed {
			t.Errorf("%s hint was replayed; it must fall through", name)
		}
		if res.Winner != cold.Winner || res.Degraded {
			t.Errorf("%s hint changed the verdict: winner %q degraded=%v", name, res.Winner, res.Degraded)
		}
		if verr := res.Solution.Validate(p); verr != nil {
			t.Errorf("%s hint: cold fallback invalid: %v", name, verr)
		}
	}
}

// Degraded results must not export a trace: a spill packing is not a
// solution to the original problem and replaying it would be wrong.
func TestPipelineDegradedExportsNoTrace(t *testing.T) {
	res, err := AllocatePipeline(infeasibleProblem())
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if !res.Degraded {
		t.Fatalf("infeasible fixture no longer degrades: %+v", res)
	}
	if res.Trace != nil {
		t.Errorf("degraded result exported a trace: %+v", res.Trace)
	}
}

// Allocate honours WithHints like the pipeline: a trace of the same shape
// replays with no search at all, and an unusable one falls through to the
// same cold solve as no hint.
func TestAllocateReplaysHint(t *testing.T) {
	p := tightProblem(t)
	cold, err := AllocatePipeline(p, WithMaxSteps(100000))
	if err != nil {
		t.Fatalf("cold pipeline: %v", err)
	}
	sol, st, err := Allocate(p, WithMaxSteps(100000), WithHints(cold.Trace))
	if err != nil {
		t.Fatalf("hinted Allocate: %v", err)
	}
	if !slices.Equal(sol.Offsets, cold.Solution.Offsets) {
		t.Errorf("replayed offsets %v, want the traced packing %v", sol.Offsets, cold.Solution.Offsets)
	}
	if st.Steps != 0 {
		t.Errorf("replay took %d search steps, want 0", st.Steps)
	}
}

func TestAllocateHintFallsThroughWhenUnusable(t *testing.T) {
	p := tightProblem(t)
	cold, err := AllocatePipeline(p, WithMaxSteps(100000))
	if err != nil {
		t.Fatalf("cold pipeline: %v", err)
	}
	want, wantSt, err := Allocate(p, WithMaxSteps(100000))
	if err != nil {
		t.Fatalf("unhinted Allocate: %v", err)
	}
	for name, hint := range map[string]*DecisionTrace{
		"wrong shape": {Winner: cold.Trace.Winner, Shape: "not-a-real-shape",
			Offsets: append([]int64(nil), cold.Trace.Offsets...)},
		"overlapping": {Winner: cold.Trace.Winner, Shape: cold.Trace.Shape,
			Offsets: make([]int64, len(cold.Trace.Offsets))}, // all zero: co-live buffers collide
		"truncated": {Winner: cold.Trace.Winner, Shape: cold.Trace.Shape,
			Offsets: cold.Trace.Offsets[:1]},
	} {
		sol, st, err := Allocate(p, WithMaxSteps(100000), WithHints(hint))
		if err != nil {
			t.Fatalf("%s hint: %v", name, err)
		}
		if verr := sol.Validate(p); verr != nil {
			t.Errorf("%s hint: cold fallback invalid: %v", name, verr)
		}
		if !slices.Equal(sol.Offsets, want.Offsets) || st != wantSt {
			t.Errorf("%s hint changed the cold solve: %v %+v, want %v %+v", name, sol.Offsets, st, want.Offsets, wantSt)
		}
		if st.Steps == 0 {
			t.Errorf("%s hint: no search steps, but the hint was unusable", name)
		}
	}
}
