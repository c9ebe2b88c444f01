package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"telamalloc"
	"telamalloc/internal/buffers"
	"telamalloc/internal/cache"
	"telamalloc/internal/cp"
	"telamalloc/internal/wire"
)

// stages is the default ladder, in order.
var stages = []string{telamalloc.StageGreedy, telamalloc.StageBestFit, telamalloc.StageSearch, telamalloc.StageSpill}

// layerAcc accumulates the per-layer numbers of a traced run. Every field is
// either timed by the benchmark around one call into a layer, or read from
// a field the program already returns.
type layerAcc struct {
	// wire and server, from TCP reports
	overheadMS, queueMS, serviceMS []float64
	replies, shed                  int
	hits, dedups, hints            int
	encodeUS, decodeUS, requestKB  []float64

	// cache
	canonUS []float64

	// ladder, from PipelineResult
	pipelines  int
	winners    map[string]int
	stageMS    map[string]float64
	wastedMS   float64
	pipelineMS float64

	// heuristics siblings
	greedyUS, bestfitUS []float64
	greedyOK, bestfitOK int

	// search: ladder counters per op, sibling Allocate for time per step
	steps, minorBT, majorBT int64
	searchUS                float64
	searchSteps             int64

	// cp siblings
	cpBuildMS                []float64
	cpPairs, cpPlaces        int64
	cpReplayUS               float64
	cpProps, cpWakes, cpRuns int64

	// spill, from the ladder's spill stage
	spillAttempts int64
	spillMS       float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{winners: map[string]int{}, stageMS: map[string]float64{}}
}

// addPipeline folds one ladder result into the ladder, search and spill
// layers, and emits the program-reported stage spans under parent.
func (l *layerAcc) addPipeline(tr *tracer, op, parent int64, start time.Time, res telamalloc.PipelineResult, elapsed time.Duration) {
	l.pipelines++
	l.pipelineMS += ms(elapsed)
	if res.Winner != "" {
		l.winners[res.Winner]++
	}
	at := start
	for _, st := range res.Stages {
		if st.Skipped {
			continue
		}
		l.stageMS[st.Stage] += ms(st.Elapsed)
		if st.Stage != res.Winner {
			l.wastedMS += ms(st.Elapsed)
		}
		l.steps += st.Stats.Steps
		l.minorBT += st.Stats.MinorBacktracks
		l.majorBT += st.Stats.MajorBacktracks
		if st.Stage == telamalloc.StageSpill {
			l.spillMS += ms(st.Elapsed)
		}
		tr.add(op, parent, "stage:"+st.Stage, at, at.Add(st.Elapsed), true)
		at = at.Add(st.Elapsed)
	}
	if res.Spill != nil {
		l.spillAttempts += int64(res.Spill.Attempts)
	}
}

// siblings times direct calls into each layer on the op's input, after
// the op: greedy, best-fit, search under the same pot, CP build plus
// replay of the found packing, canonicalisation, and wire encode/decode.
// It returns an error when a layer contradicts the checked packing.
func (l *layerAcc) siblings(tr *tracer, op int64, search *telamalloc.Allocator, p telamalloc.Problem, offsets []int64) error {
	var gOK, bOK bool
	l.greedyUS = append(l.greedyUS, us(tr.timed(op, 0, "greedy", func() {
		_, err := telamalloc.AllocateGreedy(p)
		gOK = err == nil
	})))
	l.bestfitUS = append(l.bestfitUS, us(tr.timed(op, 0, "best-fit", func() {
		_, err := telamalloc.AllocateBestFit(p)
		bOK = err == nil
	})))
	if gOK {
		l.greedyOK++
	}
	if bOK {
		l.bestfitOK++
	}

	var st telamalloc.Stats
	d := tr.timed(op, 0, "search", func() { _, st, _ = search.Allocate(context.Background(), p) })
	l.searchUS += us(d)
	l.searchSteps += st.Steps

	q := internalProblem(p)
	var m *cp.Model
	l.cpBuildMS = append(l.cpBuildMS, ms(tr.timed(op, 0, "cp.build", func() {
		m = cp.NewModel(q, buffers.ComputeOverlaps(q))
	})))
	l.cpPairs += int64(m.NumPairs())
	if offsets != nil {
		var conflict *cp.Conflict
		l.cpReplayUS += us(tr.timed(op, 0, "cp.replay", func() { conflict = replay(m, offsets) }))
		if conflict != nil {
			return fmt.Errorf("cp replay of a checked packing conflicted: %v", conflict)
		}
		l.cpPlaces += int64(len(offsets))
		s := m.Stats()
		l.cpProps += s.Propagations
		l.cpWakes += s.PairWakeups
		l.cpRuns++
	}

	l.canonUS = append(l.canonUS, us(tr.timed(op, 0, "cache.canonicalize", func() { cache.Canonicalize(q) })))

	req := wireRequest(fmt.Sprint(op), p, 0)
	var line []byte
	var err error
	l.encodeUS = append(l.encodeUS, us(tr.timed(op, 0, "wire.encode", func() { line, err = json.Marshal(req) })))
	if err != nil {
		return fmt.Errorf("encode request: %w", err)
	}
	var back wire.Request
	l.decodeUS = append(l.decodeUS, us(tr.timed(op, 0, "wire.decode", func() { err = json.Unmarshal(line, &back) })))
	if err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	l.requestKB = append(l.requestKB, float64(len(line))/1024)
	return nil
}

// replay places every buffer of a full packing on a fresh model, in buffer
// order, propagating after each placement.
func replay(m *cp.Model, offsets []int64) *cp.Conflict {
	for i, off := range offsets {
		if c := m.Place(i, off); c != nil {
			return c
		}
	}
	return nil
}

// addReply folds one TCP report into the wire, server and cache layers.
// sentAt is when the request line was written.
func (l *layerAcc) addReply(sentAt time.Time, r reply) {
	l.replies++
	switch r.resp.Outcome {
	case wire.OutcomeShed:
		l.shed++
		return
	case wire.OutcomeSolved, wire.OutcomeDegraded, wire.OutcomeFailed:
	default:
		return
	}
	l.queueMS = append(l.queueMS, r.resp.QueueWaitMS)
	l.serviceMS = append(l.serviceMS, r.resp.ElapsedMS)
	l.overheadMS = append(l.overheadMS, ms(r.at.Sub(sentAt))-r.resp.QueueWaitMS-r.resp.ElapsedMS)
	if r.resp.CacheHit {
		l.hits++
	}
	if r.resp.Deduped {
		l.dedups++
	}
	if r.resp.HintReplayed {
		l.hints++
	}
}

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perLayerDefs is every per-layer metric, in report order.
var perLayerDefs = func() []metricDef {
	d := []metricDef{
		{"wire.overhead_ms.p50", "ms", "lower"},
		{"wire.overhead_ms.tail", "ms", "lower"},
		{"wire.encode_us", "us", "lower"},
		{"wire.decode_us", "us", "lower"},
		{"wire.request_kb", "KB", "lower"},
		{"server.queue_wait_ms.p50", "ms", "lower"},
		{"server.queue_wait_ms.tail", "ms", "lower"},
		{"server.service_ms.p50", "ms", "lower"},
		{"server.service_ms.tail", "ms", "lower"},
		{"server.shed_ratio", "ratio", "lower"},
		{"cache.hit_ratio", "ratio", "higher"},
		{"cache.dedup_ratio", "ratio", "higher"},
		{"cache.hint_replay_ratio", "ratio", "higher"},
		{"cache.canonicalize_us", "us", "lower"},
	}
	for _, s := range stages {
		better := "higher"
		if s == telamalloc.StageSpill {
			better = "lower"
		}
		d = append(d, metricDef{"ladder.win_share." + s, "ratio", better})
	}
	for _, s := range stages {
		d = append(d, metricDef{"ladder.stage_ms." + s, "ms", "lower"})
	}
	return append(d,
		metricDef{"ladder.wasted_share", "ratio", "lower"},
		metricDef{"heuristics.greedy_us", "us", "lower"},
		metricDef{"heuristics.bestfit_us", "us", "lower"},
		metricDef{"heuristics.greedy_ok_ratio", "ratio", "higher"},
		metricDef{"heuristics.bestfit_ok_ratio", "ratio", "higher"},
		metricDef{"search.steps", "count", "lower"},
		metricDef{"search.backtracks_minor", "count", "lower"},
		metricDef{"search.backtracks_major", "count", "lower"},
		metricDef{"search.us_per_step", "us", "lower"},
		metricDef{"search.policy_us_per_step_est", "us", "lower"},
		metricDef{"cp.build_ms", "ms", "lower"},
		metricDef{"cp.pairs", "count", "lower"},
		metricDef{"cp.replay_us_per_place", "us", "lower"},
		metricDef{"cp.propagations", "count", "lower"},
		metricDef{"cp.pair_wakeups", "count", "lower"},
		metricDef{"spill.attempts", "count", "lower"},
		metricDef{"spill.ms", "ms", "lower"},
	)
}()

// values turns the accumulator into the per-layer metrics. Counts and
// times are per op (pipeline run) unless the name says otherwise; ratios
// have the base named in their definition.
func (l *layerAcc) values() map[string]float64 {
	v := map[string]float64{}
	ov, qw, sv := summarize(l.overheadMS), summarize(l.queueMS), summarize(l.serviceMS)
	v["wire.overhead_ms.p50"], v["wire.overhead_ms.tail"] = ov.P50, ov.Tail
	v["wire.encode_us"] = median(l.encodeUS)
	v["wire.decode_us"] = median(l.decodeUS)
	v["wire.request_kb"] = median(l.requestKB)
	v["server.queue_wait_ms.p50"], v["server.queue_wait_ms.tail"] = qw.P50, qw.Tail
	v["server.service_ms.p50"], v["server.service_ms.tail"] = sv.P50, sv.Tail
	lookups := float64(max(l.replies-l.shed, 1))
	v["server.shed_ratio"] = float64(l.shed) / float64(max(l.replies, 1))
	v["cache.hit_ratio"] = float64(l.hits) / lookups
	v["cache.dedup_ratio"] = float64(l.dedups) / lookups
	v["cache.hint_replay_ratio"] = float64(l.hints) / lookups
	v["cache.canonicalize_us"] = median(l.canonUS)
	ops := float64(max(l.pipelines, 1))
	won := 0
	for _, n := range l.winners {
		won += n
	}
	for _, s := range stages {
		v["ladder.win_share."+s] = float64(l.winners[s]) / float64(max(won, 1))
		v["ladder.stage_ms."+s] = l.stageMS[s] / ops
	}
	v["ladder.wasted_share"] = l.wastedMS / max(l.pipelineMS, 1e-9)
	sib := float64(max(len(l.greedyUS), 1))
	v["heuristics.greedy_us"] = median(l.greedyUS)
	v["heuristics.bestfit_us"] = median(l.bestfitUS)
	v["heuristics.greedy_ok_ratio"] = float64(l.greedyOK) / sib
	v["heuristics.bestfit_ok_ratio"] = float64(l.bestfitOK) / sib
	v["search.steps"] = float64(l.steps) / ops
	v["search.backtracks_minor"] = float64(l.minorBT) / ops
	v["search.backtracks_major"] = float64(l.majorBT) / ops
	v["search.us_per_step"] = l.searchUS / float64(max(l.searchSteps, 1))
	v["cp.build_ms"] = median(l.cpBuildMS)
	v["cp.pairs"] = float64(l.cpPairs) / sib
	v["cp.replay_us_per_place"] = l.cpReplayUS / float64(max(l.cpPlaces, 1))
	v["search.policy_us_per_step_est"] = v["search.us_per_step"] - v["cp.replay_us_per_place"]
	runs := float64(max(l.cpRuns, 1))
	v["cp.propagations"] = float64(l.cpProps) / runs
	v["cp.pair_wakeups"] = float64(l.cpWakes) / runs
	v["spill.attempts"] = float64(l.spillAttempts) / ops
	v["spill.ms"] = l.spillMS / ops
	return v
}

// internalProblem converts a public problem for the internal layers the
// benchmark times directly.
func internalProblem(p telamalloc.Problem) *buffers.Problem {
	q := &buffers.Problem{Memory: p.Memory, Name: p.Name}
	for _, b := range p.Buffers {
		q.Buffers = append(q.Buffers, buffers.Buffer{Start: b.Start, End: b.End, Size: b.Size, Align: b.Align})
	}
	q.Normalize()
	return q
}

// wireRequest describes p as a protocol request carrying a step pot.
func wireRequest(id string, p telamalloc.Problem, maxSteps int64) wire.Request {
	req := wire.Request{V: wire.Version, ID: id, Name: p.Name, Memory: p.Memory, MaxSteps: maxSteps}
	req.Buffers = make([]wire.Buffer, len(p.Buffers))
	for i, b := range p.Buffers {
		req.Buffers[i] = wire.Buffer{Start: b.Start, End: b.End, Size: b.Size, Align: b.Align}
	}
	return req
}
