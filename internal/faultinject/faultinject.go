// Package faultinject is a deterministic fault-injection harness for the
// allocation pipeline. It exists to *prove* the robustness contract rather
// than assume it: production ML compilers embed the allocator in-process,
// so a panic in a worker or a learned policy, an unbounded stall, or a
// starved budget must surface as a structured error — never as a crashed
// host or a hung compile.
//
// An Injector is installed through the test-only core.Config.Hook, which
// the search polls at every solver choice point (at least once per
// candidate attempt) with a stable point label ("group<i>" for subproblem
// i). Faults fire at exact per-point call counts, so a given fault hits the
// same decision point at every parallelism level — the property the
// determinism suite relies on.
//
// Three fault kinds cover the failure modes the robustness contract names:
//
//   - Panic: the hook panics at the chosen point. The containment boundary
//     in internal/core must convert it to telamon.Internal / ErrInternal.
//   - Stall: the hook sleeps, simulating a wedged policy or a descheduled
//     worker. Cancellation latency must stay bounded by stall + stride.
//   - Starve: from the chosen call on, the hook reports budget exhaustion,
//     forcing telamon.Budget — the degradation path to spilling.
package faultinject

import (
	"fmt"
	"sync"
	"time"
)

// Named decision points, beyond the solver's per-subproblem "group<i>"
// labels. The pipeline announces every stage twice — at entry, before the
// stage's allocator runs, and at exit, after it returned but before its
// verdict is recorded — so faults can be armed at the exact boundary where
// production code hands control between components. The serving layer
// (internal/server) announces its queue and lifecycle transitions the same
// way. A panic at any of these points must be contained by the layer that
// owns the point; a stall models a wedged component; a starve at
// PointServerAdmit forces a load-shed.
const (
	// PointServerAdmit fires in Submit before a request is enqueued.
	// Starve at this point forces the request to be shed.
	PointServerAdmit = "server:admit"
	// PointServerDequeue fires when a worker picks a request off the queue.
	PointServerDequeue = "server:dequeue"
	// PointServerDrain fires once when a drain begins.
	PointServerDrain = "server:drain"
	// PointServerBrownout fires on every brownout-controller evaluation
	// tick, before queue-wait pressure is compared against the target. A
	// starve makes that tick observe saturated pressure regardless of the
	// real p90 — the deterministic way to force the ladder down a level
	// without generating real load; a panic must be contained by the
	// brownout loop.
	PointServerBrownout = "server:brownout"
	// PointServerExpire fires when the server starts an eager expiry sweep
	// over the queue (a push found a class full). A starve makes the sweep
	// treat every deadline-carrying queued job as already expired — the
	// deterministic way to exercise eager eviction without waiting out
	// real budgets.
	PointServerExpire = "server:expire"
	// PointServerTenant fires when a tenant-labelled request reaches the
	// per-tenant admission check. A starve makes the check deny as if the
	// tenant's token bucket were empty — the deterministic way to force a
	// tenant shed; a panic must be contained by Submit.
	PointServerTenant = "server:tenant"
	// PointServerWatchdog fires on every solve-watchdog scan. A stall
	// models a descheduled watchdog; a panic must be contained by the
	// watchdog loop; a starve makes the watchdog treat every scanned job
	// as overdue — the deterministic way to force a watchdog kill without
	// real wall-clock overruns.
	PointServerWatchdog = "server:watchdog"
	// PointConnAccept fires in the daemon's accept loop for each accepted
	// connection, before the connection-limit check. A starve makes the
	// daemon shed the connection as if the limit were reached; a stall
	// models a wedged accept path.
	PointConnAccept = "conn:accept"
	// PointConnRead fires before each request line is read from a
	// connection. A starve synthesizes an idle-timeout on that read; a
	// stall models a slow peer holding the read loop.
	PointConnRead = "conn:read"
)

// StageEntry returns the hook label announced when a pipeline stage is
// entered, e.g. "stage:search".
func StageEntry(stage string) string { return "stage:" + stage }

// StageExit returns the hook label announced after a pipeline stage's
// allocator returned, inside the stage's containment boundary — a panic
// here discards the stage's result and fails the stage, exactly like a
// crash while persisting its verdict would.
func StageExit(stage string) string { return "stage:" + stage + ":exit" }

// Kind is the fault class to inject.
type Kind int

const (
	// Panic makes the hook panic with an *InjectedPanic value.
	Panic Kind = iota
	// Stall makes the hook sleep for StallFor.
	Stall
	// Starve makes the hook report budget exhaustion from the trigger
	// call onward (sticky), so the affected search stops with Budget.
	Starve
)

func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Stall:
		return "stall"
	case Starve:
		return "starve"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one scheduled fault.
type Fault struct {
	// Point is the hook label the fault arms on; "" arms on every point.
	// Point-specific faults are deterministic under parallelism (each
	// group's search has a fixed call sequence); "" faults count global
	// calls and should only assert outcomes that are scheduling-invariant.
	Point string
	// After fires the fault on the After-th matching call (1-based;
	// values below 1 mean the first call).
	After int64
	// Kind selects the fault class.
	Kind Kind
	// StallFor is the sleep duration for Stall faults.
	StallFor time.Duration
}

// InjectedPanic is the value Panic faults panic with, so tests can assert
// the recovered error came from the injector and not a real bug.
type InjectedPanic struct {
	Point string
	Call  int64
}

func (p *InjectedPanic) Error() string {
	return fmt.Sprintf("faultinject: injected panic at %q call %d", p.Point, p.Call)
}

type armedFault struct {
	Fault
	calls    int64
	fired    bool
	starving bool
}

// Injector counts hook calls per fault and fires faults deterministically.
// It is safe for concurrent use from parallel search workers.
type Injector struct {
	mu     sync.Mutex
	faults []*armedFault
	fired  []string
}

// New builds an injector for the given fault schedule.
func New(faults ...Fault) *Injector {
	in := &Injector{}
	for _, f := range faults {
		if f.After < 1 {
			f.After = 1
		}
		in.faults = append(in.faults, &armedFault{Fault: f})
	}
	return in
}

// Hook is the function to install as core.Config.Hook. It returns true when
// a Starve fault is active for the point (the search must treat its budget
// as exhausted).
func (in *Injector) Hook(point string) bool {
	var stallFor time.Duration
	var panicWith *InjectedPanic
	starve := false

	in.mu.Lock()
	for _, f := range in.faults {
		if f.Point != "" && f.Point != point {
			continue
		}
		f.calls++
		if f.starving {
			starve = true
			continue
		}
		if !f.fired && f.calls >= f.After {
			f.fired = true
			in.fired = append(in.fired, fmt.Sprintf("%s@%s#%d", f.Kind, point, f.calls))
			switch f.Kind {
			case Panic:
				panicWith = &InjectedPanic{Point: point, Call: f.calls}
			case Stall:
				stallFor = f.StallFor
			case Starve:
				f.starving = true
				starve = true
			}
		}
	}
	in.mu.Unlock()

	// Side effects happen outside the lock: a stalling or panicking hook
	// must not also wedge concurrent workers' bookkeeping.
	if stallFor > 0 {
		time.Sleep(stallFor)
	}
	if panicWith != nil {
		panic(panicWith)
	}
	return starve
}

// Fired returns a record of the faults that have fired, in firing order,
// formatted "kind@point#call".
func (in *Injector) Fired() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.fired...)
}
