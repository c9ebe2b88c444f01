package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"telamalloc"
	"telamalloc/internal/buffers"
	"telamalloc/internal/check"
	"telamalloc/internal/cp"
)

// counts are the machine-independent numbers of a run: they depend only on
// the seed and the program, never on the machine or the run length.
type counts struct {
	Ops            int            `json:"ops"`
	Winners        map[string]int `json:"winners"`
	Solved         int            `json:"solved"`
	Degraded       int            `json:"degraded"`
	Failed         int            `json:"failed"`
	Steps          int64          `json:"steps"`
	Backtracks     int64          `json:"backtracks"`
	SpillAttempts  int64          `json:"spill_attempts"`
	CPPropagations int64          `json:"cp_propagations"`
	CPPairWakeups  int64          `json:"cp_pair_wakeups"`
	Hash           string         `json:"answer_hash"`
	hash           hash.Hash64
}

func newCounts() counts { return counts{Winners: map[string]int{}, hash: fnv.New64a()} }

// answer folds one verdict and its offsets into the answer hash.
func (c *counts) answer(verdict, winner string, offsets []int64) {
	c.hash.Write([]byte(verdict + "/" + winner + ":"))
	var b [8]byte
	for _, o := range offsets {
		binary.LittleEndian.PutUint64(b[:], uint64(o))
		c.hash.Write(b[:])
	}
	c.Hash = fmt.Sprintf("%016x", c.hash.Sum64())
}

func (c counts) String() string {
	ws := make([]string, 0, len(c.Winners))
	for w, n := range c.Winners {
		ws = append(ws, fmt.Sprintf("%s:%d", w, n))
	}
	sort.Strings(ws)
	return fmt.Sprintf("ops=%d winners=%s solved=%d degraded=%d failed=%d steps=%d backtracks=%d spill_attempts=%d cp_propagations=%d cp_pair_wakeups=%d answer_hash=%s",
		c.Ops, strings.Join(ws, ","), c.Solved, c.Degraded, c.Failed, c.Steps, c.Backtracks, c.SpillAttempts, c.CPPropagations, c.CPPairWakeups, c.Hash)
}

// compileOp is one problem of a compile workload.
type compileOp struct {
	pass  int
	model string
	p     telamalloc.Problem
}

// compileWorkload is a closed loop with one caller: each op is one
// Allocator.Pipeline call under a fixed step pot and no wall-clock budget.
type compileWorkload struct {
	spec  compileSpec
	insts []instance
	probs []telamalloc.Problem // insts[i] at its memory ratio
	rng   *rand.Rand
}

// newCompileWorkload builds the corpus the seed selects and sets each graph
// at its memory ratio. Graph i sits at frac((i+1)·phi) of the ratio range,
// a low-discrepancy sequence that covers the range evenly.
func newCompileWorkload(spec compileSpec, seed, holdoutSeed int64) (*compileWorkload, error) {
	insts, err := corpus(spec.Models, spec.Instances, corpusFirstSeed(spec, seed, holdoutSeed))
	if err != nil {
		return nil, err
	}
	probs := make([]telamalloc.Problem, len(insts))
	for i, in := range insts {
		probs[i] = in.atRatio(ratioFor(0, i+1, spec.RatioLo, spec.RatioHi))
	}
	return &compileWorkload{spec: spec, insts: insts, probs: probs, rng: rand.New(rand.NewSource(seed))}, nil
}

// pass returns the ops of pass j: every corpus problem once, in a seeded
// order. Every pass solves the same problems, so each pass's rate measures
// the same work and the run's figures do not depend on how many passes fit
// in it.
func (w *compileWorkload) pass(j int) []compileOp {
	order := w.rng.Perm(len(w.probs))
	ops := make([]compileOp, len(order))
	for k, i := range order {
		ops[k] = compileOp{pass: j, model: w.insts[i].model, p: w.probs[i]}
	}
	return ops
}

func (w *compileWorkload) options() []telamalloc.Option {
	return []telamalloc.Option{telamalloc.WithMaxSteps(w.spec.MaxSteps), telamalloc.WithParallelism(1)}
}

// processCPU reads the process's CPU clock. The compile workloads have one
// caller, so an op's CPU time leaves out the time the host (steal) or
// another process held the CPU, and includes the runtime's own work (GC)
// done meanwhile on other threads.
func processCPU() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("telabench: clock_gettime: %v", e))
	}
	return time.Duration(ts.Nano())
}

// setup builds the allocation handle and runs one warm-up solve on a fixed
// problem, repeats times, and returns the handle and the median set-up
// CPU time.
func (w *compileWorkload) setup(repeats int) (*telamalloc.Allocator, float64, error) {
	warm := w.insts[0].atRatio(1.10)
	var times []float64
	var a *telamalloc.Allocator
	for i := 0; i < max(repeats, 1); i++ {
		runtime.GC()
		c0 := processCPU()
		h, err := telamalloc.New(w.options()...)
		if err != nil {
			return nil, 0, fmt.Errorf("telamalloc.New: %w", err)
		}
		if _, err := h.Pipeline(context.Background(), warm); err != nil {
			return nil, 0, fmt.Errorf("warm-up solve: %w", err)
		}
		times = append(times, (processCPU() - c0).Seconds())
		a = h
	}
	return a, median(times), nil
}

// opResult is everything the loop keeps about one timed op.
type opResult struct {
	res     telamalloc.PipelineResult
	err     error
	start   time.Time
	elapsed time.Duration // wall time
	cpu     time.Duration // process CPU time
}

// verdict classifies a checked pipeline answer.
func verdict(res telamalloc.PipelineResult, err error) string {
	switch {
	case err != nil:
		return "failed"
	case res.Degraded:
		return "degraded"
	default:
		return "solved"
	}
}

// loopStats summarises the timed ops of one segment.
type loopStats struct {
	lat       []float64 // CPU ms per Pipeline call
	wall      []float64 // wall ms per Pipeline call
	models    []string  // the model of each op in lat
	attempted int
	failed    int
	solved    int
	rejected  int // checker rejections, also counted as failed
	passes    int
	busy      time.Duration // summed CPU time of the Pipeline calls
	allocB    uint64
	// Per whole pass: completion rate over its CPU time. Each pass solves
	// every corpus instance once.
	passRate []float64
}

// loop runs whole passes from pass first until the deadline has passed,
// timing only the Pipeline call (CPU and wall time) and its allocation,
// each after a full collection.
// Every answer is checked after the timed call; onOp sees each checked op.
func (w *compileWorkload) loop(a *telamalloc.Allocator, first int, deadline time.Time, onOp func(op compileOp, r opResult) error) (loopStats, error) {
	var st loopStats
	var ms0, ms1 runtime.MemStats
	ctx := context.Background()
	for j := first; ; j++ {
		ops := w.pass(j)
		var busy time.Duration
		var allocB uint64
		for _, op := range ops {
			// Collect the earlier ops' and the checker's garbage first, so
			// a call's CPU time holds only the GC its own allocation needs.
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			t0, c0 := time.Now(), processCPU()
			res, perr := a.Pipeline(ctx, op.p)
			c := processCPU() - c0
			d := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			r := opResult{res: res, err: perr, start: t0, elapsed: d, cpu: c}
			st.attempted++
			st.lat = append(st.lat, ms(c))
			st.wall = append(st.wall, ms(d))
			st.models = append(st.models, op.model)
			busy += c
			allocB += ms1.TotalAlloc - ms0.TotalAlloc
			v := verdict(res, perr)
			if rep := check.Pipeline(op.p, res, perr); !rep.OK() {
				st.rejected++
				v = "failed"
				fmt.Fprintf(os.Stderr, "telabench: checker rejected %s at memory %d: %v\n", op.p.Name, op.p.Memory, rep.Err())
			}
			switch v {
			case "failed":
				st.failed++
			case "solved":
				st.solved++
			}
			if err := onOp(op, r); err != nil {
				return st, err
			}
		}
		st.passes++
		st.passRate = append(st.passRate, float64(len(ops))/busy.Seconds())
		st.busy += busy
		st.allocB += allocB
		if !time.Now().Before(deadline) {
			return st, nil
		}
	}
}

// latencies digests every op's latency. The tail sits at the workload's
// fixed TailPercentile, chosen inside its slowest cluster of ops (a spill,
// a second-long search), so a run length that moves the sample count
// cannot move the percentile across a cluster boundary. The median is the
// median over models of each model's median: the ops of one workload fall
// into cost clusters (a greedy win, a short search, a long search) whose
// shares put the median of all ops at the gap between two of them, where
// a millisecond of noise moves it by the width of the gap.
func (w *compileWorkload) latencies(st loopStats) (p50 float64, s summary) {
	byModel := map[string][]float64{}
	for i, l := range st.lat {
		byModel[st.models[i]] = append(byModel[st.models[i]], l)
	}
	var medians []float64
	for _, ls := range byModel {
		medians = append(medians, median(ls))
	}
	s = summarizeAt(st.lat, w.spec.TailPercentile)
	if beyond := float64(s.N) * (100 - s.TailP) / 100; beyond < minBeyond {
		fmt.Fprintf(os.Stderr, "telabench: only %.1f of %d samples lie beyond p%g\n", beyond, s.N, s.TailP)
	}
	return median(medians), s
}

// runCompile measures a compile workload for seconds. A traced run first
// times an untraced reference segment, then a traced segment that records
// spans and times sibling calls into each layer on every op's input.
func runCompile(name string, spec compileSpec, sp benchSpec, seed int64, seconds float64, traced bool, spanPath string) (result, error) {
	w, err := newCompileWorkload(spec, seed, sp.HoldoutSeed)
	if err != nil {
		return result{}, err
	}
	a, setupS, err := w.setup(sp.SetupRepeats)
	if err != nil {
		return result{}, err
	}
	cnt := newCounts()
	recordCounts := func(op compileOp, r opResult) error {
		if op.pass != 0 {
			return nil
		}
		return cnt.add(op.p, r.res, r.err)
	}
	start := time.Now()
	if !traced {
		st, err := w.loop(a, 0, start.Add(secondsDur(seconds)), recordCounts)
		if err != nil {
			return result{}, err
		}
		p50, s := w.latencies(st)
		wall := summarizeAt(st.wall, w.spec.TailPercentile)
		fmt.Printf("# %s: %d ops in %d passes; CPU time: solves/s %.3f overall (per pass median %.3f, min %.3f, max %.3f); latency median of model p50s %.4f ms, op p50 %.4f ms, p%g %.4f ms (n=%d), max %.4f ms; wall time: op p50 %.4f ms, p%g %.4f ms, CPU share %.3f\n",
			name, st.attempted, st.passes, float64(st.attempted)/st.busy.Seconds(), median(st.passRate), slices.Min(st.passRate), slices.Max(st.passRate), p50, s.P50, s.TailP, s.Tail, s.N, s.Max,
			wall.P50, wall.TailP, wall.Tail, st.busy.Seconds()/sum(st.wall)*1000)
		fmt.Printf("# counts (pass 0): %s\n", cnt)
		return result{
			attempted: st.attempted, failed: st.failed, rejected: st.rejected, counts: &cnt, passRates: st.passRate,
			metrics: map[string]float64{
				"setup_s":         setupS,
				"solves_per_s":    median(st.passRate),
				"latency_p50_ms":  p50,
				"latency_tail_ms": s.Tail,
				"solved_ratio":    float64(st.solved) / float64(st.attempted),
				"alloc_mb_per_op": float64(st.allocB) / float64(st.attempted) / (1 << 20),
			},
		}, nil
	}

	// Traced: an untraced reference segment, then the traced segment.
	ref, err := w.loop(a, 0, start.Add(secondsDur(seconds*0.3)), recordCounts)
	if err != nil {
		return result{}, err
	}
	bin, err := daemonBinary()
	if err != nil {
		return result{}, err
	}
	d, _, err := startDaemon(bin)
	if err != nil {
		return result{}, err
	}
	defer d.stop()
	k, err := dial(d.addr)
	if err != nil {
		return result{}, fmt.Errorf("dial daemon: %w", err)
	}
	defer k.close()

	tr := newTracer()
	acc := newLayerAcc()
	search, err := telamalloc.New(w.options()...)
	if err != nil {
		return result{}, err
	}
	var opID int64
	var tracedLat []float64
	onOp := func(op compileOp, r opResult) error {
		opID++
		root := tr.add(opID, 0, "pipeline", r.start, r.start.Add(r.elapsed), false)
		acc.addPipeline(tr, opID, root, r.start, r.res, r.elapsed)
		tracedLat = append(tracedLat, ms(r.cpu))
		tr.timed(opID, 0, "check", func() { check.Pipeline(op.p, r.res, r.err) })
		var offsets []int64
		if verdict(r.res, r.err) == "solved" {
			offsets = r.res.Solution.Offsets
		}
		if err := acc.siblings(tr, opID, search, op.p, offsets); err != nil {
			return err
		}
		return serveSibling(tr, acc, k, opID, op.p, spec.MaxSteps)
	}
	st, err := w.loop(a, ref.passes, start.Add(secondsDur(seconds)), onOp)
	if err != nil {
		return result{}, err
	}
	overhead := median(tracedLat) - median(ref.lat)
	fmt.Printf("# %s traced: %d ops (reference %d untraced), tracing overhead %.4f ms per op (p50 %.4f traced vs %.4f untraced)\n",
		name, st.attempted, ref.attempted, overhead, median(tracedLat), median(ref.lat))
	fmt.Printf("# counts (pass 0): %s\n", cnt)
	printSelfTimes(tr, st.attempted)
	if err := tr.write(spanPath); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# spans: %d written to %s\n", len(tr.spans), spanPath)
	return result{
		attempted: st.attempted + ref.attempted, failed: st.failed + ref.failed, rejected: st.rejected + ref.rejected, counts: &cnt,
		metrics: acc.values(), traceOverheadMS: overhead,
	}, nil
}

// serveSibling sends the op's problem through the daemon, closed loop on
// one connection, and checks the report against the request.
func serveSibling(tr *tracer, acc *layerAcc, k *conn, op int64, p telamalloc.Problem, maxSteps int64) error {
	req := wireRequest(fmt.Sprintf("s%d", op), p, maxSteps)
	line, err := encodeRequest(req)
	if err != nil {
		return err
	}
	t0 := time.Now()
	r, err := k.roundTrip(context.Background(), req.ID, line)
	if err != nil {
		return fmt.Errorf("serve %s: %w", req.ID, err)
	}
	root := tr.add(op, 0, "serve", t0, r.at, false)
	addReportedChildren(tr, op, root, r)
	acc.addReply(t0, r)
	if rep := check.Wire(req, r.resp); !rep.OK() {
		return fmt.Errorf("checker rejected report %s: %v", req.ID, rep.Err())
	}
	return nil
}

// addReportedChildren lays the report's queue wait and service time as
// program-reported children ending at the report's arrival, minus the
// client-side decode.
func addReportedChildren(tr *tracer, op, parent int64, r reply) {
	end := r.at
	service := time.Duration(r.resp.ElapsedMS * float64(time.Millisecond))
	queue := time.Duration(r.resp.QueueWaitMS * float64(time.Millisecond))
	tr.add(op, parent, "server.service", end.Add(-service), end, true)
	tr.add(op, parent, "server.queue", end.Add(-service-queue), end.Add(-service), true)
}

// add folds one checked op into the counts, replaying full packings on a
// fresh CP model for the propagation counters.
func (c *counts) add(p telamalloc.Problem, res telamalloc.PipelineResult, perr error) error {
	c.Ops++
	v := verdict(res, perr)
	switch v {
	case "solved":
		c.Solved++
	case "degraded":
		c.Degraded++
	default:
		c.Failed++
	}
	if res.Winner != "" {
		c.Winners[res.Winner]++
	}
	for _, st := range res.Stages {
		c.Steps += st.Stats.Steps
		c.Backtracks += st.Stats.MinorBacktracks + st.Stats.MajorBacktracks
	}
	if res.Spill != nil {
		c.SpillAttempts += int64(res.Spill.Attempts)
	}
	c.answer(v, res.Winner, res.Solution.Offsets)
	if v != "solved" {
		return nil
	}
	q := internalProblem(p)
	m := cp.NewModel(q, buffers.ComputeOverlaps(q))
	if conflict := replay(m, res.Solution.Offsets); conflict != nil {
		return fmt.Errorf("cp replay of the checked packing of %s conflicted: %v", p.Name, conflict)
	}
	s := m.Stats()
	c.CPPropagations += s.Propagations
	c.CPPairWakeups += s.PairWakeups
	return nil
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
