package server

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"telamalloc"
	"telamalloc/internal/faultinject"
)

// wedgeProblem is infeasible for the heuristics and expensive for search:
// the job parks in the search stage, where the stall faults can wedge it.
func wedgeProblem() Problem {
	p := Problem{Memory: 64, Name: "wedge"}
	for i := 0; i < 30; i++ {
		p.Buffers = append(p.Buffers, telamalloc.Buffer{Start: 0, End: 10, Size: 7})
	}
	return p
}

// A starve at server:watchdog deterministically marks every watched job
// overdue: the kill must land as exactly one typed ErrWatchdog failure, and
// the stage that was wedged must be charged to its breaker.
func TestWatchdogKillIsTypedAndFeedsBreaker(t *testing.T) {
	inj := faultinject.New(
		// Wedge the solve, non-cooperatively, inside search...
		faultinject.Fault{Point: "group0", Kind: faultinject.Stall, StallFor: 300 * time.Millisecond},
	)
	var inSearch atomic.Bool
	hook := func(point string) bool {
		if point == faultinject.PointServerWatchdog {
			// ...and force-kill everything on every scan from then on.
			// Keying the kill to the wedge rather than to the first scan
			// keeps a slow build (-race) from killing the job before it
			// reaches search.
			return inSearch.Load()
		}
		if point == "group0" {
			inSearch.Store(true)
		}
		return inj.Hook(point)
	}
	srv := New(Config{
		Workers:    1,
		QueueDepth: 4,
		Watchdog:   WatchdogConfig{BudgetMultiple: 2, Interval: 2 * time.Millisecond},
		Breaker:    BreakerConfig{Threshold: 1, Cooldown: time.Hour},
		Hook:       hook,
	})
	defer srv.Close()

	// A generous budget: the kill must come from the forced watchdog scan,
	// not from ordinary budget exhaustion. tightProblem parks the solve in
	// the search stage (an infeasible problem would skip search on its
	// lower-bound proof and wedge in spill instead), so the charge lands
	// on search's breaker.
	resp, err := srv.Submit(context.Background(), Request{Problem: tightProblem(t), Timeout: 30 * time.Second})
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("Submit returned err %v, want ErrWatchdog", err)
	}
	if errors.Is(err, ErrCancelled) {
		t.Errorf("watchdog kill must not be conflated with caller cancellation: %v", err)
	}
	if resp == nil || resp.Outcome != OutcomeFailed || resp.Err == "" {
		t.Fatalf("watchdog kill response: %+v, want OutcomeFailed with error text", resp)
	}

	c := srv.Snapshot()
	if c.WatchdogKills != 1 {
		t.Errorf("WatchdogKills = %d, want 1", c.WatchdogKills)
	}
	if c.WatchdogScans == 0 {
		t.Errorf("WatchdogScans = 0, want > 0")
	}
	if c.Failed != 1 {
		t.Errorf("Failed = %d, want 1 (the killed job)", c.Failed)
	}

	// The wedged stage (search) must have tripped its breaker: the next
	// request's ladder skips it. The second request is unbudgeted, so the
	// sticky watchdog starve cannot touch it.
	resp2, err := srv.Submit(context.Background(), Request{Problem: easyProblem()})
	if err != nil || resp2 == nil {
		t.Fatalf("post-kill submit: resp %+v err %v", resp2, err)
	}
	found := false
	for _, stage := range resp2.SkippedByBreaker {
		if stage == telamalloc.StageSearch {
			found = true
		}
	}
	if !found {
		t.Errorf("search breaker did not trip after watchdog kill; skipped = %v (trips %d)",
			resp2.SkippedByBreaker, srv.Snapshot().BreakerTrips)
	}
}

// A wall-clock overrun (no injected watchdog fault) must also be caught:
// the job stalls past BudgetMultiple × budget and the scan kills it.
func TestWatchdogKillsRealOverrun(t *testing.T) {
	inj := faultinject.New(
		faultinject.Fault{Point: "group0", Kind: faultinject.Stall, StallFor: 400 * time.Millisecond},
	)
	srv := New(Config{
		Workers:    1,
		QueueDepth: 4,
		Watchdog:   WatchdogConfig{BudgetMultiple: 2, Interval: 2 * time.Millisecond},
		Hook:       inj.Hook,
	})
	defer srv.Close()

	// Budget 30ms, kill deadline 60ms, stall 400ms: the solver sleeps
	// through both its own deadline and the kill, and the first poll after
	// waking must report the cancellation (typed as a watchdog verdict).
	start := time.Now()
	resp, err := srv.Submit(context.Background(), Request{Problem: wedgeProblem(), Timeout: 30 * time.Millisecond})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("Submit returned err %v (resp %+v) after %v, want ErrWatchdog", err, resp, elapsed)
	}
	if resp == nil || resp.Outcome != OutcomeFailed {
		t.Fatalf("watchdog kill response: %+v, want OutcomeFailed", resp)
	}
	if kills := srv.Snapshot().WatchdogKills; kills != 1 {
		t.Errorf("WatchdogKills = %d, want 1", kills)
	}
}

// Unbudgeted jobs are never watched, and healthy budgeted jobs are
// unwatched again once served: the watchdog must be invisible to traffic
// that behaves.
func TestWatchdogIgnoresHealthyAndUnbudgetedJobs(t *testing.T) {
	srv := New(Config{
		Workers:    2,
		QueueDepth: 8,
		Watchdog:   WatchdogConfig{BudgetMultiple: 1.5, Interval: time.Millisecond},
	})
	defer srv.Close()

	for i := 0; i < 4; i++ {
		req := Request{Problem: easyProblem()}
		if i%2 == 0 {
			req.Timeout = 5 * time.Second // budgeted but fast: watched, never killed
		}
		resp, err := srv.Submit(context.Background(), req)
		if err != nil || resp == nil || resp.Outcome != OutcomeSolved {
			t.Fatalf("submit %d: resp %+v err %v", i, resp, err)
		}
	}
	c := srv.Snapshot()
	if c.WatchdogKills != 0 {
		t.Errorf("WatchdogKills = %d, want 0", c.WatchdogKills)
	}
	if active := srv.watchdogActive(); active != 0 {
		t.Errorf("watchdogActive = %d after all jobs served, want 0", active)
	}
	if c.Solved != 4 {
		t.Errorf("Solved = %d, want 4", c.Solved)
	}
}

// The zero multiple disables the watchdog entirely: no scans, no goroutine
// left behind after Close.
func TestWatchdogDisabledByDefault(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	resp, err := srv.Submit(context.Background(), Request{Problem: easyProblem(), Timeout: time.Second})
	if err != nil || resp == nil || resp.Outcome != OutcomeSolved {
		t.Fatalf("submit: resp %+v err %v", resp, err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if scans := srv.Snapshot().WatchdogScans; scans != 0 {
		t.Errorf("WatchdogScans = %d with watchdog disabled, want 0", scans)
	}
}

// A panicking watchdog hook must be contained: the scan is skipped, the
// loop survives, and a later scan still kills the overrun.
func TestWatchdogHookPanicContained(t *testing.T) {
	inj := faultinject.New(
		faultinject.Fault{Point: faultinject.PointServerWatchdog, Kind: faultinject.Panic},
		faultinject.Fault{Point: faultinject.PointServerWatchdog, After: 3, Kind: faultinject.Starve},
		faultinject.Fault{Point: "group0", Kind: faultinject.Stall, StallFor: 300 * time.Millisecond},
	)
	srv := New(Config{
		Workers:    1,
		QueueDepth: 2,
		Watchdog:   WatchdogConfig{BudgetMultiple: 3, Interval: 2 * time.Millisecond},
		Hook:       inj.Hook,
	})
	defer srv.Close()

	_, err := srv.Submit(context.Background(), Request{Problem: wedgeProblem(), Timeout: 30 * time.Second})
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("Submit returned %v, want ErrWatchdog (loop must survive the hook panic)", err)
	}
	c := srv.Snapshot()
	if c.ContainedPanics == 0 {
		t.Errorf("ContainedPanics = 0, want the watchdog hook panic counted")
	}
	if c.WatchdogKills != 1 {
		t.Errorf("WatchdogKills = %d, want 1", c.WatchdogKills)
	}
}
