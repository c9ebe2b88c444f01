package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"telamalloc"
	"telamalloc/internal/faultinject"
)

// wedgeProblem is provably infeasible (30 co-live buffers of 7 in 64): the
// ladder skips search on its lower-bound proof and parks in the spill
// stage, whose first packing attempt reaches the group0 hook.
func wedgeProblem() Problem {
	p := Problem{Memory: 64, Name: "wedge"}
	for i := 0; i < 30; i++ {
		p.Buffers = append(p.Buffers, telamalloc.Buffer{Start: 0, End: 10, Size: 7})
	}
	return p
}

// A solve that sleeps through its whole budget without polling must end at
// the first poll after it wakes, as a typed budget failure. The spill
// planner must not read the clock-starved attempts that follow as "does not
// fit" and serve a plan that evicts everything.
func TestSubmitDeadlineEndsStalledSolve(t *testing.T) {
	const stall = 400 * time.Millisecond
	inj := faultinject.New(
		faultinject.Fault{Point: "group0", Kind: faultinject.Stall, StallFor: stall},
	)
	srv := New(Config{Workers: 1, QueueDepth: 4, Hook: inj.Hook})
	defer mustDrain(t, srv)

	start := time.Now()
	resp, err := srv.Submit(context.Background(), Request{Problem: wedgeProblem(), Timeout: 30 * time.Millisecond})
	elapsed := time.Since(start)
	if !errors.Is(err, telamalloc.ErrBudget) {
		t.Fatalf("Submit returned err %v (resp %+v) after %v, want ErrBudget", err, resp, elapsed)
	}
	if resp == nil || resp.Outcome != OutcomeFailed || len(resp.Spilled) != 0 || resp.Offsets != nil {
		t.Fatalf("response %+v, want OutcomeFailed with no spill plan", resp)
	}
	if elapsed < stall || elapsed > stall+time.Second {
		t.Errorf("request ended after %v, want soon after the %v stall", elapsed, stall)
	}
	if c := srv.Snapshot(); c.Failed != 1 || c.Degraded != 0 {
		t.Errorf("counters %+v, want exactly one failed request", c)
	}
}

// Breakers trip on ErrInternal only: a search stage that overruns its
// budget behind a long stall is the ladder escalating, not a broken stage,
// while a contained panic is.
func TestBreakerIgnoresBudgetTripsOnPanic(t *testing.T) {
	p := tightProblem(t)
	searchEntry := faultinject.StageEntry(telamalloc.StageSearch)
	inj := faultinject.New(
		// First request: search wedges past its whole budget.
		faultinject.Fault{Point: "group0", Kind: faultinject.Stall, StallFor: 200 * time.Millisecond},
		// Second request: search panics on entry.
		faultinject.Fault{Point: searchEntry, After: 2, Kind: faultinject.Panic},
	)
	srv := New(Config{
		Workers: 1,
		Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Hour},
		// The same problem must run the ladder every time.
		CacheSize: -1,
		Hook:      inj.Hook,
	})
	defer mustDrain(t, srv)

	resp, err := srv.Submit(context.Background(), Request{Problem: p, Timeout: 30 * time.Millisecond})
	if !errors.Is(err, telamalloc.ErrBudget) {
		t.Fatalf("stalled request: err %v (resp %+v), want ErrBudget", err, resp)
	}
	if trips := srv.Snapshot().BreakerTrips; trips != 0 {
		t.Fatalf("a budget verdict tripped %d breakers, want 0", trips)
	}

	resp, err = srv.Submit(context.Background(), Request{Problem: p})
	if err != nil || resp == nil {
		t.Fatalf("panicking request: resp %+v err %v", resp, err)
	}
	if len(resp.SkippedByBreaker) != 0 {
		t.Fatalf("panicking request skipped %v; the stall must not have opened a breaker", resp.SkippedByBreaker)
	}
	if resp.Winner != telamalloc.StageSpill {
		t.Errorf("winner %q, want spill to recover the panicked search", resp.Winner)
	}
	c := srv.Snapshot()
	if c.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d after a contained panic, want 1", c.BreakerTrips)
	}

	resp, err = srv.Submit(context.Background(), Request{Problem: p})
	if err != nil || resp == nil {
		t.Fatalf("post-trip request: resp %+v err %v", resp, err)
	}
	if len(resp.SkippedByBreaker) != 1 || resp.SkippedByBreaker[0] != telamalloc.StageSearch {
		t.Errorf("post-trip request skipped %v, want [search]", resp.SkippedByBreaker)
	}
}
