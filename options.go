package telamalloc

import (
	"context"
	"fmt"
	"io"
	"time"

	"telamalloc/internal/buffers"
	"telamalloc/internal/core"
	"telamalloc/internal/gbt"
	"telamalloc/internal/ilp"
	"telamalloc/internal/mlpolicy"
	"telamalloc/internal/obs"
)

// Option configures Allocate and AllocatePipeline.
type Option func(*config)

type config struct {
	core          core.Config
	model         *BacktrackModel
	gate          *StepGateModel
	gateThreshold float64
	// timeout is the wall-clock budget. It is stored as a duration and
	// resolved into core.Deadline when the solve *starts*, so a config
	// built ahead of time — or reused across calls — gets the full budget
	// on every call instead of one that silently shrank since the option
	// was applied.
	timeout time.Duration
	ctx     context.Context
	pipe    pipelineConfig
	hint    *DecisionTrace
	obsReg  *obs.Registry
}

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// registry resolves the metrics registry this config reports into.
func (c *config) registry() *obs.Registry {
	if c.obsReg != nil {
		return c.obsReg
	}
	return obs.Default()
}

// clone returns a copy safe to specialise with per-call options: the one
// mutable shared structure (the stage-share map) is deep-copied so a
// call-scoped WithStageShare cannot leak into the handle it came from.
func (c config) clone() config {
	if c.pipe.shares != nil {
		shares := make(map[string]float64, len(c.pipe.shares))
		for k, v := range c.pipe.shares {
			shares[k] = v
		}
		c.pipe.shares = shares
	}
	return c
}

// validate rejects structurally invalid configurations. It runs at
// Allocator construction (New), so a bad option list fails once, loudly,
// instead of failing every call — or worse, being silently reinterpreted.
func (c *config) validate() error {
	if c.timeout < 0 {
		return fmt.Errorf("%w: negative timeout %v", ErrInvalidProblem, c.timeout)
	}
	if c.core.MaxSteps < 0 {
		return fmt.Errorf("%w: negative step budget %d", ErrInvalidProblem, c.core.MaxSteps)
	}
	if c.pipe.stages != nil {
		if err := validateLadder(c.pipe.stages); err != nil {
			return err
		}
	}
	for stage, share := range c.pipe.shares {
		switch stage {
		case StageGreedy, StageBestFit, StageSearch, StageSpill:
		default:
			return fmt.Errorf("%w: stage share for unknown stage %q", ErrInvalidProblem, stage)
		}
		if share < 0 {
			return fmt.Errorf("%w: negative stage share %g for %q", ErrInvalidProblem, share, stage)
		}
	}
	if c.pipe.maxSpills < 0 {
		return fmt.Errorf("%w: negative spill cap %d", ErrInvalidProblem, c.pipe.maxSpills)
	}
	if c.gate != nil && c.gateThreshold > 1 {
		return fmt.Errorf("%w: step-gate threshold %g is not a probability", ErrInvalidProblem, c.gateThreshold)
	}
	return nil
}

// bindContext merges the call context into the config under the Allocator's
// earliest-wins deadline rule (see the Allocator doc comment). When both a
// WithContext context and a call context exist, the older one moves onto the
// cooperative-cancellation path so both are polled and whichever ends first
// stops the solve.
func (c *config) bindContext(ctx context.Context) {
	if ctx == nil || ctx == context.Background() {
		return
	}
	if c.ctx != nil {
		c.core.Cancel = core.ChainCancel(c.ctx.Done(), c.core.Cancel)
	}
	c.ctx = ctx
}

// WithObservability routes the allocation's telemetry — solver effort
// counters, per-stage histograms, the live sampled step counter — into r
// instead of the process-global obs.Default() registry. Pass a dedicated
// registry when embedding several independently-monitored allocators in one
// process, or in tests that assert on exact counter values.
func WithObservability(r *obs.Registry) Option {
	return func(c *config) { c.obsReg = r }
}

// WithMaxSteps caps the number of placement attempts (0 = unlimited).
func WithMaxSteps(n int64) Option {
	return func(c *config) { c.core.MaxSteps = n }
}

// WithTimeout aborts the allocation after d, measured from the moment the
// solve starts — not from when the option was applied — so option lists
// can be built ahead of time and reused across calls.
func WithTimeout(d time.Duration) Option {
	return func(c *config) { c.timeout = d }
}

// WithContext cancels the allocation when ctx is done — cancelled or past
// its deadline — returning ErrCancelled. Cancellation is cooperative: it is
// observed within the search's polling stride, from every parallel worker.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// WithParallelism bounds how many independent subproblems are searched
// concurrently (0 = GOMAXPROCS, 1 = sequential). The result is identical at
// every parallelism level; only wall-clock time changes.
func WithParallelism(n int) Option {
	return func(c *config) { c.core.Parallelism = n }
}

// WithCancel installs a cooperative-cancellation hook: it is polled
// periodically from every search worker (and so must be safe to call
// concurrently); the first true return aborts the allocation with
// ErrCancelled.
func WithCancel(cancel func() bool) Option {
	return func(c *config) { c.core.Cancel = cancel }
}

// WithFaultHook installs the test-only fault-injection hook at every named
// decision point the allocator announces: solver budget checks ("group<i>"),
// pipeline stage entry/exit ("stage:<name>", "stage:<name>:exit"). The hook
// may stall, panic, or return true to starve the announcing search's budget;
// panics are contained at the owning boundary and surface as ErrInternal.
// See internal/faultinject. Must not be set in production configurations —
// it exists so harnesses (and the serving layer's soak tests) can prove the
// containment contract rather than assume it.
func WithFaultHook(hook func(point string) bool) Option {
	return func(c *config) { c.core.Hook = hook }
}

// WithHints feeds a decision trace from a previous win (PipelineResult.
// Trace) back as a first-try packing. When the trace's shape fingerprint
// matches the problem and the replayed packing validates, the solve returns
// it immediately — a warm start that skips search entirely. An unusable
// trace is silently ignored; correctness never depends on the hint because
// every replayed packing is re-validated against the actual problem first.
// A nil trace is a no-op, so callers can pass a maybe-absent cache result
// unconditionally.
func WithHints(t *DecisionTrace) Option {
	return func(c *config) { c.hint = t }
}

// WithSkylinePlacement selects the simple skyline placement strategy
// (Figure 8a) instead of solver-guided placement. Mainly useful for
// experiments; solver-guided placement is strictly more capable.
func WithSkylinePlacement() Option {
	return func(c *config) { c.core.Placement = core.SkylineTop }
}

// WithoutPhases disables contention-based grouping (§5.3).
func WithoutPhases() Option {
	return func(c *config) { c.core.DisablePhases = true }
}

// WithoutSubproblemSplit disables independent-subproblem splitting.
func WithoutSubproblemSplit() Option {
	return func(c *config) { c.core.DisableSplit = true }
}

// WithStrictCandidates restricts each decision point to the paper's three
// heuristic picks per phase, instead of falling through to every unplaced
// buffer. This increases major backtracks — the regime the learned
// backtracking policy (§6) operates in. WithBacktrackModel implies it.
func WithStrictCandidates() Option {
	return func(c *config) { c.core.NoFallbackCandidates = true }
}

// WithBacktrackModel enables the learned backtracking policy of §6: on a
// major backtrack, the model ranks candidate backtrack targets and, when
// confident, overrides the default conflict-driven jump. It implies
// WithoutSubproblemSplit, since the learned policy tracks one coherent
// decision path.
func WithBacktrackModel(m *BacktrackModel) Option {
	return func(c *config) {
		c.model = m
		c.core.DisableSplit = true
		c.core.NoFallbackCandidates = true
	}
}

// StepGateModel is a trained step-level gate (§8.3 of the paper): a shallow
// tree evaluated at every decision point that decides between the cheap
// (three heuristic picks) and the expensive (full fallback) candidate path.
type StepGateModel struct {
	forest *gbt.Forest
}

// TrainStepGate collects per-decision-point risk labels from solving the
// given problems in strict candidate mode and trains the shallow gate tree.
// searchSteps bounds each collection search.
func TrainStepGate(problems []Problem, seed, searchSteps int64) (*StepGateModel, error) {
	var ds gbt.Dataset
	for _, p := range problems {
		part := mlpolicy.GateTrainingRun(toInternal(p), searchSteps)
		ds.X = append(ds.X, part.X...)
		ds.Y = append(ds.Y, part.Y...)
	}
	forest, err := mlpolicy.TrainGate(ds, seed)
	if err != nil {
		return nil, err
	}
	return &StepGateModel{forest: forest}, nil
}

// Save serialises the gate as JSON.
func (m *StepGateModel) Save(w io.Writer) error { return m.forest.Save(w) }

// LoadStepGate reads a gate saved with Save.
func LoadStepGate(r io.Reader) (*StepGateModel, error) {
	f, err := gbt.Load(r)
	if err != nil {
		return nil, err
	}
	return &StepGateModel{forest: f}, nil
}

// WithStepGate lets the trained gate decide, per decision point, whether to
// build the expensive candidate set. threshold <= 0 selects the default
// (0.5).
func WithStepGate(m *StepGateModel, threshold float64) Option {
	return func(c *config) {
		c.gate = m
		c.gateThreshold = threshold
	}
}

// finalize binds problem-dependent pieces (the learned chooser and the step
// gate) and solve-start-dependent pieces (the wall-clock deadline, the
// context) once the internal problem exists and the solve is beginning.
func (c *config) finalize(q *buffers.Problem) core.Config {
	cfg := c.core
	cfg.Obs = c.obsReg
	if c.timeout > 0 {
		deadline := time.Now().Add(c.timeout)
		if cfg.Deadline.IsZero() || deadline.Before(cfg.Deadline) {
			cfg.Deadline = deadline
		}
	}
	if c.ctx != nil {
		cfg.Ctx = c.ctx
	}
	if c.model != nil {
		cfg.Chooser = mlpolicy.NewChooser(c.model.forest, q)
	}
	if c.gate != nil {
		threshold := c.gateThreshold
		if threshold <= 0 {
			// The documented default: WithStepGate promises that a
			// non-positive threshold means 0.5, not "expensive path always".
			threshold = 0.5
		}
		cfg.Gate = mlpolicy.NewStepGate(c.gate.forest, q, threshold)
	}
	return cfg
}

// BacktrackModel is a trained backtracking policy (a gradient boosted tree
// forest over backtrack-candidate features).
type BacktrackModel struct {
	forest *gbt.Forest
}

// LoadBacktrackModel reads a model saved with Save.
func LoadBacktrackModel(r io.Reader) (*BacktrackModel, error) {
	f, err := gbt.Load(r)
	if err != nil {
		return nil, err
	}
	return &BacktrackModel{forest: f}, nil
}

// Save serialises the model as JSON.
func (m *BacktrackModel) Save(w io.Writer) error {
	return m.forest.Save(w)
}

// TrainBacktrackModel collects imitation-learning data by solving the given
// problems with an exact-solver oracle in the loop (§6.3–6.5) and trains
// the backtracking forest. Training is deterministic per seed. oracleSteps
// bounds each oracle probe; searchSteps bounds each collection search.
func TrainBacktrackModel(problems []Problem, seed, searchSteps, oracleSteps int64) (*BacktrackModel, error) {
	var internal []*buffers.Problem
	for _, p := range problems {
		internal = append(internal, toInternal(p))
	}
	ds := mlpolicy.CollectDataset(internal, []int{100, 105, 110}, seed, searchSteps, ilp.Options{MaxSteps: oracleSteps})
	forest, err := mlpolicy.TrainModel(ds, seed)
	if err != nil {
		return nil, err
	}
	return &BacktrackModel{forest: forest}, nil
}
