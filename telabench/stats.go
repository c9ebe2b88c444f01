package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// tailLadder is the fixed set of percentiles the tail rule chooses from, in
// tenths of a percent. A coarse ladder keeps the chosen percentile stable
// when the sample count moves a little between runs.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// minBeyond is how many samples must lie strictly above a reported tail
// percentile.
const minBeyond = 10

// quantile returns the q-quantile (0..1) of sorted xs by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	if frac == 0 || math.IsInf(sorted[lo+1], 1) {
		return sorted[lo+int(math.Ceil(frac))] // keeps infinities out of the arithmetic
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailPercentile picks the highest ladder percentile with at least
// minBeyond of n samples beyond it. With fewer than minBeyond samples no
// percentile qualifies and the median is used.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n*(1000-p) >= minBeyond*1000 {
			return float64(p) / 10
		}
	}
	return 50
}

// summary is the latency digest every timing is reported with.
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	TailP  float64 `json:"tail_percentile"`
	Tail   float64 `json:"tail"`
	Max    float64 `json:"max"`
	sorted []float64
}

// summarizeAt is summarize with the tail at a fixed percentile.
func summarizeAt(xs []float64, p float64) summary {
	s := summarize(xs)
	if len(s.sorted) > 0 {
		s.TailP, s.Tail = p, quantile(s.sorted, p/100)
	}
	return s
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), sorted: s}
	if len(s) == 0 {
		return out
	}
	out.P50 = quantile(s, 0.5)
	out.TailP = tailPercentile(len(s))
	out.Tail = quantile(s, out.TailP/100)
	out.Max = s[len(s)-1]
	return out
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// poissonSchedule returns the send offsets of an open-loop Poisson stream
// at rate per second over the window, drawn from seed alone.
func poissonSchedule(seed int64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

// phaseResult is one fixed-rate open-loop phase as the capacity test sees
// it. Latencies of failed or shed requests count as missing the limit.
type phaseResult struct {
	Rate    float64    `json:"rate"`
	Sent    int        `json:"sent"`
	OK      int        `json:"ok"`
	Shed    int        `json:"shed"`
	Failed  int        `json:"failed"`
	Latency summary    `json:"latency_ms"`
	Late    summary    `json:"gen_late_ms"`
	Backlog [3]float64 `json:"backlog_by_third"` // mean outstanding per third
	// Windows splits the phase into equal time windows by scheduled send
	// time; P50 and Tail are the medians of the windows' p50 and tail.
	Windows []window `json:"windows"`
	P50     float64  `json:"p50_ms"`
	Tail    float64  `json:"tail_ms"`
	Passed  bool     `json:"passed"`
	Why     string   `json:"why,omitempty"`
	// Per request, by scheduled send offset: latency in ms, +Inf for a
	// request that was not ok.
	offsets   []time.Duration
	latencies []float64
}

// window is one time slice of a phase.
type window struct {
	Sent    int     `json:"sent"`
	OK      int     `json:"ok"`
	Latency summary `json:"latency_ms"`
	Passed  bool    `json:"passed"` // tail within the limit
}

// okFloor is the share of requests that must be ok.
const okFloor = 0.99

// judge applies the capacity test to a phase of length span split into
// nWin windows: at least okFloor of its requests ok, the tail latency
// (failures and sheds count as infinitely late) within limitMS in most
// windows, and no growing backlog. A rare slow request can push one
// window's tail over the limit; overload pushes them all.
func (ph *phaseResult) judge(limitMS, tailP float64, span time.Duration, nWin int) {
	ph.Latency = summarizeAt(ph.latencies, tailP)
	nWin = max(nWin, 1)
	lat := make([][]float64, nWin)
	ph.Windows = make([]window, nWin)
	for i, off := range ph.offsets {
		k := min(int(int64(off)*int64(nWin)/int64(max(span, 1))), nWin-1)
		lat[k] = append(lat[k], ph.latencies[i])
		ph.Windows[k].Sent++
		if !math.IsInf(ph.latencies[i], 1) {
			ph.Windows[k].OK++
		}
	}
	var p50s, tails []float64
	within := 0
	for k := range ph.Windows {
		w := &ph.Windows[k]
		w.Latency = summarizeAt(lat[k], tailP)
		w.Passed = w.Sent > 0 && w.Latency.Tail <= limitMS
		if w.Passed {
			within++
		}
		p50s, tails = append(p50s, w.Latency.P50), append(tails, w.Latency.Tail)
	}
	ph.P50, ph.Tail = median(p50s), median(tails)
	ph.Passed, ph.Why = true, ""
	switch {
	case ph.Sent == 0:
		ph.Passed, ph.Why = false, "no requests"
	case float64(ph.OK) < okFloor*float64(ph.Sent):
		ph.Passed, ph.Why = false, "fewer than 99% ok"
	case 2*within <= nWin:
		ph.Passed, ph.Why = false, fmt.Sprintf("tail over the limit in %d of %d windows", nWin-within, nWin)
	case growing(ph.Backlog, ph.Rate):
		ph.Passed, ph.Why = false, "growing backlog"
	}
}

// growing reports a backlog that rose from the first third of a phase to
// the last: the mean number outstanding in the last third exceeds the
// first third's by more than 50 ms worth of arrivals (and at least 5). A
// single slow request raises the backlog for a moment; overload raises it
// for good.
func growing(b [3]float64, rate float64) bool {
	return b[2]-b[0] > max(5, 0.05*rate)
}

// capacity is the highest ladder rate whose phase passed, provided every
// lower rate passed too; 0 when the lowest rate fails.
func capacity(phases []phaseResult) float64 {
	best := 0.0
	for _, ph := range phases {
		if !ph.Passed {
			break
		}
		best = ph.Rate
	}
	return best
}
