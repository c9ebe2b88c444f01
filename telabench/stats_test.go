package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if got > 50 && math.Round(float64(tc.n)*(100-got)*10)/1000 < minBeyond {
			t.Errorf("n=%d: p%g leaves fewer than %d samples beyond", tc.n, got, minBeyond)
		}
	}
}

func TestSummaryTailHasTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{100, 250, 1000, 1500} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so summarize must sort
		}
		s := summarize(xs)
		beyond := 0
		for _, x := range xs {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: tail p%g = %g has %d samples beyond, want >= %d", n, s.TailP, s.Tail, beyond, minBeyond)
		}
		if s.P50 != quantile(s.sorted, 0.5) || s.Max != float64(n) {
			t.Errorf("n=%d: p50 %g max %g", n, s.P50, s.Max)
		}
	}
	if f := summarizeAt([]float64{1, 2, 3, 4, 5}, 75); f.TailP != 75 || f.Tail != 4 {
		t.Errorf("fixed p75 of 1..5 = p%g %g, want p75 4", f.TailP, f.Tail)
	}
}

func TestPoissonScheduleReproducibleFromSeed(t *testing.T) {
	a := poissonSchedule(7, 50, 10*time.Second)
	b := poissonSchedule(7, 50, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 50, 10*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 500 expected arrivals: a Poisson count stays within ±5 sigma.
	if n := len(a); math.Abs(float64(n)-500) > 5*math.Sqrt(500) {
		t.Fatalf("%d arrivals in 10s at 50/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatalf("schedule not increasing within the window at %d: %v", i, a[i])
		}
	}
}

// synthetic builds a judged phase from ok latencies, non-ok requests and
// the backlog sampled at each third.
// The lost requests are spread evenly over a 3s phase judged in three
// windows.
func synthetic(rate float64, okMS []float64, lost int, backlog [3]float64, limit float64) phaseResult {
	ph := phaseResult{Rate: rate, Sent: len(okMS) + lost, OK: len(okMS), Backlog: backlog}
	ph.latencies = append(ph.latencies, okMS...)
	for i := 0; i < lost; i++ {
		ph.latencies = append(ph.latencies, math.Inf(1))
	}
	for i := range ph.latencies {
		ph.offsets = append(ph.offsets, 3*time.Second*time.Duration(i)/time.Duration(len(ph.latencies)))
	}
	// Interleave the lost requests so every window gets its share.
	for i := 0; i < lost; i++ {
		j := len(okMS) + i
		k := (i * len(ph.latencies)) / max(lost, 1)
		ph.latencies[j], ph.latencies[k] = ph.latencies[k], ph.latencies[j]
	}
	ph.judge(limit, 95, 3*time.Second, 3)
	return ph
}

func flat(n int, v float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

func TestCapacityOnSyntheticLadder(t *testing.T) {
	const limit = 100
	ladder := []phaseResult{
		synthetic(10, flat(200, 5), 0, [3]float64{1, 1, 1}, limit),
		synthetic(20, flat(200, 20), 0, [3]float64{2, 3, 2}, limit),
		synthetic(40, flat(200, 80), 1, [3]float64{4, 5, 5}, limit), // 199/200 ok, lost one beyond the tail
		synthetic(80, flat(200, 300), 0, [3]float64{5, 9, 14}, limit),
	}
	if got := capacity(ladder); got != 40 {
		t.Fatalf("capacity = %g, want 40 (phases %+v)", got, ladder)
	}
	if ladder[3].Why != "tail over the limit in 3 of 3 windows" {
		t.Errorf("rate 80 failed for %q, want the tail", ladder[3].Why)
	}

	// Tail met but the backlog grows: the rate fails.
	grow := synthetic(40, flat(200, 10), 0, [3]float64{3, 10, 25}, limit)
	if grow.Passed || grow.Why != "growing backlog" {
		t.Fatalf("growing backlog passed: %+v", grow)
	}
	if got := capacity([]phaseResult{ladder[0], ladder[1], grow, ladder[2]}); got != 20 {
		t.Fatalf("capacity past a growing backlog = %g, want 20", got)
	}

	// Sheds count as missing the limit, and below 99% ok fails outright.
	shed := synthetic(40, flat(190, 10), 10, [3]float64{1, 1, 1}, limit)
	if shed.Passed || shed.Why != "fewer than 99% ok" {
		t.Fatalf("5%% shed passed: %+v", shed)
	}
	// A steady small backlog is not growth.
	if growing([3]float64{6, 8, 10}, 40) || !growing([3]float64{2, 6, 9}, 40) || growing([3]float64{2, 6, 14}, 400) {
		t.Fatal("growth rule")
	}
	// A burst of slow requests inside one window sinks that window only.
	burst := synthetic(40, flat(300, 10), 0, [3]float64{1, 1, 1}, limit)
	for i := 0; i < 20; i++ {
		burst.latencies[i] = 400
	}
	burst.judge(limit, 95, 3*time.Second, 3)
	if !burst.Passed || burst.Windows[0].Passed || !burst.Windows[1].Passed {
		t.Fatalf("a one-window burst failed the phase: %+v", burst)
	}
	if got := capacity([]phaseResult{synthetic(10, flat(100, 500), 0, [3]float64{}, limit)}); got != 0 {
		t.Fatalf("capacity with a failing lowest rate = %g, want 0", got)
	}
}

func TestCoveredTimeUnionsChildren(t *testing.T) {
	parent := span{StartNS: 0, EndNS: 100}
	kids := []span{{StartNS: 10, EndNS: 30}, {StartNS: 20, EndNS: 40}, {StartNS: 90, EndNS: 150}, {StartNS: 60, EndNS: 70}}
	if got := coveredNS(parent, kids); got != 30+10+10 {
		t.Fatalf("covered = %d, want 50", got)
	}
}
