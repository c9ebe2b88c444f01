package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"telamalloc"
	"telamalloc/internal/check"
	"telamalloc/internal/wire"
	"telamalloc/internal/workload"
)

// requestStream draws the serve-mixed requests. A fresh request is a new
// graph of one of the Pixel-6 proxies (models in a seeded round-robin
// order, a fresh generator seed each time) at a low-discrepancy memory
// ratio; about RepeatShare of requests instead repeat an earlier fresh
// problem, permuted and time-shifted, so they are fingerprint-equal but
// byte-different.
type requestStream struct {
	spec   serveSpec
	rng    *rand.Rand
	starts []float64 // per model: seeded start of its ratio sequence
	draws  []int     // per model: fresh draws so far
	order  []int
	next   int
	fresh  []telamalloc.Problem
	n      int
}

func newRequestStream(spec serveSpec, seed int64) *requestStream {
	rng := rand.New(rand.NewSource(seed))
	return &requestStream{spec: spec, rng: rng, starts: ratioDraws(rng, len(workload.Models)), draws: make([]int, len(workload.Models))}
}

// request returns the stream's next request and whether it repeats an
// earlier problem.
func (s *requestStream) request() (wire.Request, bool) {
	s.n++
	id := fmt.Sprintf("r%d", s.n)
	if len(s.fresh) > 0 && s.rng.Float64() < s.spec.RepeatShare {
		base := s.fresh[s.rng.Intn(len(s.fresh))]
		p, _ := check.Permute(base, s.rng.Int63())
		p = check.TimeShift(p, 1+s.rng.Int63n(1000))
		return wireRequest(id, p, s.spec.MaxSteps), true
	}
	if s.next == len(s.order) {
		s.order, s.next = s.rng.Perm(len(workload.Models)), 0
	}
	m := s.order[s.next]
	s.next++
	in := newInstance(workload.Models[m], s.rng.Int63())
	p := in.atRatio(ratioFor(s.starts[m], s.draws[m], s.spec.RatioLo, s.spec.RatioHi))
	s.draws[m]++
	s.fresh = append(s.fresh, p)
	return wireRequest(id, p, s.spec.MaxSteps), false
}

// sent is one open-loop request as the generator saw it.
type sent struct {
	req      wire.Request
	due      time.Time // scheduled send time
	at       time.Time // actual write time
	encodeNS int64
	ch       <-chan reply
	err      error // transport error on write
	r        reply
	got      bool
}

// openLoop sends reqs at the scheduled offsets, alternating over conns,
// then waits up to drain for every report. Latency runs from the scheduled
// send time, so a stalled generator or server is charged to every request
// behind the stall.
func openLoop(conns []*conn, reqs []wire.Request, sched []time.Duration, drain time.Duration) []sent {
	out := make([]sent, len(reqs))
	t0 := time.Now()
	for i, req := range reqs {
		due := t0.Add(sched[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s := &out[i]
		s.req, s.due = req, due
		e0 := time.Now()
		line, err := encodeRequest(req)
		s.encodeNS = time.Since(e0).Nanoseconds()
		if err != nil {
			s.err = err
			continue
		}
		s.at = time.Now()
		s.ch, s.err = conns[i%len(conns)].send(req.ID, line)
	}
	deadline := time.Now().Add(drain)
	for i := range out {
		s := &out[i]
		if s.ch == nil {
			continue
		}
		select {
		case s.r = <-s.ch:
			s.got = s.r.err == nil
			if s.r.err != nil {
				s.err = s.r.err
			}
		case <-time.After(time.Until(deadline)):
			s.err = fmt.Errorf("no report within %v of the phase end", drain)
		}
	}
	return out
}

// closedLoop runs one caller per connection: each sends its next request
// as soon as the previous report arrives, until the window ends or next
// runs out. It returns every request sent, with its report.
func closedLoop(conns []*conn, next func() (wire.Request, bool), window time.Duration) []sent {
	deadline := time.Now().Add(window)
	outs := make([][]sent, len(conns))
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(15*time.Second))
			defer cancel()
			for time.Now().Before(deadline) {
				req, ok := next()
				if !ok {
					return
				}
				s := sent{req: req}
				line, err := encodeRequest(s.req)
				if err != nil {
					s.err = err
					outs[c] = append(outs[c], s)
					return
				}
				s.due = time.Now()
				s.at = s.due
				s.r, s.err = conns[c].roundTrip(ctx, s.req.ID, line)
				s.got = s.err == nil
				outs[c] = append(outs[c], s)
				if s.err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	var all []sent
	for _, o := range outs {
		all = append(all, o...)
	}
	return all
}

// countPhase sends the stream's next n requests one at a time on one
// connection of a fresh daemon and folds every checked report into the
// totals and the counts. With one request outstanding, the cache's state
// before each request, and so whether it hits, depends only on the
// requests before it, and no request can be deduplicated against another:
// the counts depend only on the seed and the program.
func countPhase(k *conn, stream *requestStream, n int, tot *serveTotals) error {
	for i := 0; i < n; i++ {
		req, _ := stream.request()
		line, err := encodeRequest(req)
		if err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		r, err := k.roundTrip(ctx, req.ID, line)
		cancel()
		if err != nil {
			return fmt.Errorf("counted request %s: %w", req.ID, err)
		}
		tot.attempted++
		if rep := check.Wire(req, r.resp); !rep.OK() {
			tot.rejected++
			tot.failed++
			fmt.Fprintf(os.Stderr, "telabench: checker rejected report %s: %v\n", req.ID, rep.Err())
			continue
		}
		s := sent{req: req, r: r, got: true}
		if !s.ok() {
			tot.failed++
		}
		tot.cnt.addReport(r.resp)
	}
	return nil
}

// ok reports whether a request was served: a packing, full or degraded.
func (s sent) ok() bool {
	return s.got && (s.r.resp.Outcome == wire.OutcomeSolved || s.r.resp.Outcome == wire.OutcomeDegraded)
}

// serveTotals are the run's request totals; fixed* count the closed-loop
// and fixed-rate phases, which solved_ratio covers.
type serveTotals struct {
	attempted, failed, solved, rejected int
	fixedAttempted, fixedSolved         int
	cnt                                 counts
}

// judge checks every report of one open-loop phase, folds the phase into
// the totals, and applies the capacity test.
func (tot *serveTotals) judge(name string, rate float64, sched []time.Duration, window time.Duration, out []sent, spec serveSpec, fixed bool) phaseResult {
	ph := phaseResult{Rate: rate, Sent: len(out)}
	var late []float64
	for i, s := range out {
		ph.offsets = append(ph.offsets, sched[i])
		tot.attempted++
		if fixed {
			tot.fixedAttempted++
		}
		if s.got {
			if rep := check.Wire(s.req, s.r.resp); !rep.OK() {
				tot.rejected++
				s.got = false
				fmt.Fprintf(os.Stderr, "telabench: checker rejected report %s: %v\n", s.req.ID, rep.Err())
			}
		}
		if !s.at.IsZero() {
			late = append(late, ms(s.at.Sub(s.due)))
		}
		switch {
		case s.ok():
			ph.OK++
			ph.latencies = append(ph.latencies, ms(s.r.at.Sub(s.due)))
			if s.r.resp.Outcome == wire.OutcomeSolved {
				tot.solved++
				if fixed {
					tot.fixedSolved++
				}
			}
		default:
			tot.failed++
			ph.latencies = append(ph.latencies, math.Inf(1))
			if s.got && s.r.resp.Outcome == wire.OutcomeShed {
				ph.Shed++
			} else {
				ph.Failed++
			}
		}
	}
	ph.Late = summarize(late)
	ph.Backlog = backlog(sched, window, out)
	ph.judge(spec.LatencyLimitM, spec.TailPercentile, window, spec.Windows)
	verdict := "pass"
	if !ph.Passed {
		verdict = "FAIL (" + ph.Why + ")"
	}
	passed := 0
	var wt []string
	for _, w := range ph.Windows {
		if w.Passed {
			passed++
		}
		wt = append(wt, fmtMS(w.Latency.Tail))
	}
	fmt.Printf("# phase %-8s rate %6.1f/s: sent %d ok %d shed %d failed %d; latency p50 %.3f ms p%g %s ms (n=%d); window medians p50 %.3f ms tail %s ms; window tails [%s] ms, %d/%d passed; gen.late_ms p50 %.3f max %.3f; backlog by third %.1f; %s\n",
		name, rate, ph.Sent, ph.OK, ph.Shed, ph.Failed, ph.Latency.P50, ph.Latency.TailP, fmtMS(ph.Latency.Tail), ph.Latency.N,
		ph.P50, fmtMS(ph.Tail), strings.Join(wt, " "), passed, len(ph.Windows), ph.Late.P50, ph.Late.Max, ph.Backlog, verdict)
	return ph
}

func fmtMS(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.3f", v)
}

// backlog returns the mean number of outstanding requests — due but not
// yet answered — over each third of the phase window, sampled every
// millisecond.
func backlog(sched []time.Duration, window time.Duration, out []sent) [3]float64 {
	var b [3]float64
	if len(out) == 0 {
		return b
	}
	start := out[0].due.Add(-sched[0])
	// delta[t] is the change in outstanding requests at millisecond t.
	n := int(window/time.Millisecond) + 1
	delta := make([]int, n+1)
	at := func(t time.Time) int { return min(max(int(t.Sub(start)/time.Millisecond), 0), n) }
	for _, s := range out {
		delta[at(s.due)]++
		if s.got {
			delta[at(s.r.at)]--
		}
	}
	cur := 0
	for t := 0; t < n; t++ {
		cur += delta[t]
		b[min(3*t/n, 2)] += float64(cur)
	}
	for k := range b {
		b[k] /= float64(n) / 3
	}
	return b
}

// runServe drives serve-mixed. Both kinds of run first send the counted
// requests one at a time (countPhase). Untraced: closed-loop segments (one
// caller per connection) for the throughput, alternating with low-rate
// open-loop segments, and a high fixed-rate phase for latency, then the
// rate ladder upward until a rung fails the capacity test. Traced: an
// untraced low-rate reference phase, traced low and high phases, then
// sibling calls into each layer on the distinct problems served.
func runServe(sp benchSpec, seed int64, seconds float64, traced bool, spanPath string) (result, error) {
	spec := sp.Serve
	bin, err := daemonBinary()
	if err != nil {
		return result{}, err
	}
	var setups []float64
	var d *daemon
	for i := 0; i < max(sp.SetupRepeats, 1); i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		d, took, err = startDaemon(bin)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
	}
	defer d.stop()
	conns := make([]*conn, spec.Connections)
	for i := range conns {
		if conns[i], err = dial(d.addr); err != nil {
			return result{}, fmt.Errorf("dial daemon: %w", err)
		}
		defer conns[i].close()
	}
	stream := newRequestStream(spec, seed)
	tot := serveTotals{cnt: newCounts()}
	if err := countPhase(conns[0], stream, spec.CountRequests, &tot); err != nil {
		return result{}, err
	}
	fmt.Printf("# counts (first %d requests, one at a time): %s\n", spec.CountRequests, tot.cnt)
	alloc0, err := d.totalAllocBytes()
	if err != nil {
		return result{}, err
	}
	counted := tot.attempted
	var tr *tracer
	acc := newLayerAcc()
	phaseSeed := seed
	phase := func(name string, rate float64, share float64, fixed bool) ([]sent, phaseResult) {
		window := secondsDur(seconds * share)
		phaseSeed++
		sched := poissonSchedule(phaseSeed, rate, window)
		reqs := make([]wire.Request, len(sched))
		for i := range reqs {
			reqs[i], _ = stream.request()
		}
		out := openLoop(conns, reqs, sched, 15*time.Second)
		return out, tot.judge(name, rate, sched, window, out, spec, fixed)
	}

	// closedPhase runs one closed-loop segment and returns its throughput
	// in served requests per second.
	closedPhase := func(window time.Duration) float64 {
		pool := make([]wire.Request, int(spec.ClosedMaxRate*window.Seconds()))
		for i := range pool {
			pool[i], _ = stream.request()
		}
		var taken atomic.Int64
		next := func() (wire.Request, bool) {
			i := taken.Add(1) - 1
			if i >= int64(len(pool)) {
				return wire.Request{}, false
			}
			return pool[i], true
		}
		t0 := time.Now()
		closed := closedLoop(conns, next, window)
		secs := time.Since(t0).Seconds()
		served := 0
		for _, s := range closed {
			tot.attempted++
			tot.fixedAttempted++
			if !s.got {
				tot.failed++
				fmt.Fprintf(os.Stderr, "telabench: closed-loop request %s: %v\n", s.req.ID, s.err)
				continue
			}
			if rep := check.Wire(s.req, s.r.resp); !rep.OK() {
				tot.rejected++
				tot.failed++
				fmt.Fprintf(os.Stderr, "telabench: checker rejected report %s: %v\n", s.req.ID, rep.Err())
				continue
			}
			switch {
			case !s.ok():
				tot.failed++
			case s.r.resp.Outcome == wire.OutcomeSolved:
				tot.solved++
				tot.fixedSolved++
			}
			if s.ok() {
				served++
			}
		}
		fmt.Printf("# phase closed   %d connections: %d requests, %d served in %.3fs: %.1f solves/s\n", len(conns), len(closed), served, secs, float64(served)/secs)
		return float64(served) / secs
	}

	if !traced {
		// Segments alternate a closed-loop phase (throughput) with a
		// low-rate open-loop phase (latency); the medians over segments
		// and windows keep a burst of host noise in one segment from
		// moving the result.
		var rates, p50s, tails []float64
		var lows []phaseResult
		for k := 0; k < spec.Segments; k++ {
			rates = append(rates, closedPhase(secondsDur(seconds*spec.ClosedShare/float64(spec.Segments))))
			_, low := phase("low", spec.LowRate, spec.LowShare/float64(spec.Segments), true)
			lows = append(lows, low)
			for _, w := range low.Windows {
				p50s, tails = append(p50s, w.Latency.P50), append(tails, w.Latency.Tail)
			}
		}
		_, high := phase("high", spec.HighRate, spec.HighShare, true)
		// The capacity probe overloads its last rung by design; its sheds
		// are reported per rung and kept out of attempted/failed.
		probe := tot
		var ladder []phaseResult
		for _, rate := range spec.RateLadder {
			_, ph := phase(fmt.Sprintf("ladder%d", len(ladder)), rate, spec.RungShare, false)
			ladder = append(ladder, ph)
			if !ph.Passed {
				break
			}
		}
		probeSent := tot.attempted - probe.attempted
		tot.attempted, tot.failed = probe.attempted, probe.failed+(tot.rejected-probe.rejected)
		alloc1, err := d.totalAllocBytes()
		if err != nil {
			return result{}, err
		}
		capRPS := capacity(ladder)
		lowP50, lowTail := median(p50s), median(tails)
		fmt.Printf("# serve-mixed: closed-loop solves/s %.1f (median of %d segments); capacity_rps %.1f (highest ladder rate with >=99%% ok, most windows' p%g within %.0f ms, and no growing backlog); latency_p50_ms.low %.4f latency_tail_ms.low %s at %.0f/s; latency_p50_ms.high %.4f latency_tail_ms.high %s at %.0f/s (window medians)\n",
			median(rates), len(rates), capRPS, spec.TailPercentile, spec.LatencyLimitM, lowP50, fmtMS(lowTail), spec.LowRate, high.P50, fmtMS(high.Tail), high.Rate)
		if math.IsInf(lowTail, 1) {
			return result{}, fmt.Errorf("the low-rate phases lost more than a tenth of the requests in most windows")
		}
		return result{
			attempted: tot.attempted, failed: tot.failed, rejected: tot.rejected, counts: &tot.cnt,
			extra: map[string]any{
				"capacity_rps": capRPS, "capacity_probe_requests": probeSent, "rate_ladder": phaseRecords(ladder),
				"low": phaseRecords(lows), "high": phaseRecords([]phaseResult{high})[0],
				"closed_loop_solves_per_s": rates,
			},
			metrics: map[string]float64{
				"setup_s":         median(setups),
				"solves_per_s":    median(rates),
				"latency_p50_ms":  lowP50,
				"latency_tail_ms": lowTail,
				"solved_ratio":    float64(tot.fixedSolved) / float64(max(tot.fixedAttempted, 1)),
				"alloc_mb_per_op": float64(alloc1-alloc0) / float64(tot.attempted-counted+probeSent) / (1 << 20),
			},
		}, nil
	}

	_, ref := phase("low-ref", spec.LowRate, spec.LowShare, true)
	tr = newTracer()
	var served []sent
	lowSent := 0
	for _, p := range []struct {
		name        string
		rate, share float64
	}{{"low", spec.LowRate, spec.LowShare}, {"high", spec.HighRate, spec.HighShare}} {
		out, _ := phase(p.name, p.rate, p.share, true)
		served = append(served, out...)
		if p.name == "low" {
			lowSent = len(out)
		}
	}
	var tracedLat []float64
	for i, s := range served {
		op := int64(i + 1)
		if s.at.IsZero() {
			continue
		}
		root := tr.add(op, 0, "request", s.due, s.r.at, false)
		tr.add(op, root, "client.late", s.due, s.at, false)
		tr.add(op, root, "wire.encode", s.at.Add(-time.Duration(s.encodeNS)), s.at, false)
		if !s.got {
			continue
		}
		if i < lowSent {
			tracedLat = append(tracedLat, ms(s.r.at.Sub(s.due)))
		}
		await := tr.add(op, root, "await", s.at, s.r.at, false)
		addReportedChildren(tr, op, await, s.r)
		tr.add(op, root, "wire.decode", s.r.at, s.r.at.Add(time.Duration(s.r.decodeNS)), false)
		acc.addReply(s.at, s.r)
		if s.ok() {
			acc.winners[s.r.resp.Winner]++
		}
	}
	overhead := median(tracedLat) - ref.Latency.P50

	// Sibling calls on the distinct problems served, in-process, after the
	// load: the ladder (for stage times and spill), each layer directly.
	a, err := telamalloc.New(telamalloc.WithMaxSteps(spec.MaxSteps), telamalloc.WithParallelism(1))
	if err != nil {
		return result{}, err
	}
	sibDeadline := time.Now().Add(secondsDur(seconds * (1 - 2*spec.LowShare - spec.HighShare)))
	seen := map[string]bool{}
	servedWinners := acc.winners
	acc.winners = map[string]int{}
	for i, s := range served {
		if time.Now().After(sibDeadline) {
			break
		}
		if !s.got || !s.ok() || seen[s.req.Name+fmt.Sprint(s.req.Memory)] {
			continue
		}
		seen[s.req.Name+fmt.Sprint(s.req.Memory)] = true
		op := int64(len(served) + i + 1)
		p := check.WireProblem(s.req)
		t0 := time.Now()
		res, perr := a.Pipeline(context.Background(), p)
		el := time.Since(t0)
		root := tr.add(op, 0, "pipeline", t0, t0.Add(el), false)
		acc.addPipeline(tr, op, root, t0, res, el)
		if rep := check.Pipeline(p, res, perr); !rep.OK() {
			tot.rejected++
			tot.failed++
			fmt.Fprintf(os.Stderr, "telabench: checker rejected sibling solve of %s: %v\n", p.Name, rep.Err())
			continue
		}
		var offsets []int64
		if verdict(res, perr) == "solved" {
			offsets = res.Solution.Offsets
		}
		if err := acc.siblings(tr, op, a, p, offsets); err != nil {
			return result{}, err
		}
	}
	acc.winners = servedWinners // ladder win shares come from the served reports
	fmt.Printf("# serve-mixed traced: %d requests, %d sibling problems, tracing overhead %.4f ms (low-rate p50 %.4f traced vs %.4f untraced)\n",
		len(served), acc.pipelines, overhead, median(tracedLat), ref.Latency.P50)
	printSelfTimes(tr, len(served))
	if err := tr.write(spanPath); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# spans: %d written to %s\n", len(tr.spans), spanPath)
	return result{attempted: tot.attempted, failed: tot.failed, rejected: tot.rejected, counts: &tot.cnt, metrics: acc.values(), traceOverheadMS: overhead}, nil
}

// phaseRecord is a phase as the result record keeps it; a tail of -1 means
// requests were lost (infinitely late).
type phaseRecord struct {
	Rate    float64    `json:"rate"`
	Sent    int        `json:"sent"`
	OK      int        `json:"ok"`
	Shed    int        `json:"shed"`
	Failed  int        `json:"failed"`
	P50     float64    `json:"p50_ms"`
	Tail    float64    `json:"tail_ms"`
	TailP   float64    `json:"tail_percentile"`
	LateP50 float64    `json:"gen_late_ms_p50"`
	LateMax float64    `json:"gen_late_ms_max"`
	Backlog [3]float64 `json:"backlog_by_third"`
	Passed  bool       `json:"passed"`
	Why     string     `json:"why,omitempty"`
}

func phaseRecords(phs []phaseResult) []phaseRecord {
	finite := func(v float64) float64 {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return -1
		}
		return v
	}
	var out []phaseRecord
	for _, ph := range phs {
		out = append(out, phaseRecord{Rate: ph.Rate, Sent: ph.Sent, OK: ph.OK, Shed: ph.Shed, Failed: ph.Failed,
			P50: finite(ph.P50), Tail: finite(ph.Tail), TailP: ph.Latency.TailP, LateP50: ph.Late.P50, LateMax: ph.Late.Max,
			Backlog: ph.Backlog, Passed: ph.Passed, Why: ph.Why})
	}
	return out
}

// addReport folds one served report into the counts.
func (c *counts) addReport(r wire.Response) {
	c.Ops++
	switch r.Outcome {
	case wire.OutcomeSolved:
		c.Solved++
	case wire.OutcomeDegraded:
		c.Degraded++
	default:
		c.Failed++
	}
	if r.Winner != "" {
		c.Winners[r.Winner]++
	}
	c.answer(strings.ToLower(r.Outcome), r.Winner, r.Offsets)
}
