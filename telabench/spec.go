package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// spec.json holds every constant a run depends on: seeds, corpus sizes,
// ratio ranges, step pots, the serving rate ladder and latency limit, and
// which end-to-end metric each per-layer metric should move.
//
//go:embed spec.json
var specJSON []byte

type compileSpec struct {
	Models    string  `json:"models"` // "Models" or "StressModels"
	Instances int     `json:"instances"`
	RatioLo   float64 `json:"ratio_lo"`
	RatioHi   float64 `json:"ratio_hi"`
	MaxSteps  int64   `json:"max_steps"`
	// TailPercentile is the tail the workload reports: the tail rule's
	// choice at a run's usual sample count, fixed so that it stays inside
	// the slowest cluster of ops.
	TailPercentile float64 `json:"tail_percentile"`
}

type serveSpec struct {
	RatioLo     float64 `json:"ratio_lo"`
	RatioHi     float64 `json:"ratio_hi"`
	MaxSteps    int64   `json:"max_steps"`
	RepeatShare float64 `json:"repeat_share"`
	// CountRequests is how many requests, sent one at a time before the
	// timed phases, the machine-independent counts cover.
	CountRequests  int       `json:"count_requests"`
	Connections    int       `json:"connections"`
	RateLadder     []float64 `json:"rate_ladder"`
	LatencyLimitM  float64   `json:"latency_limit_ms"`
	TailPercentile float64   `json:"tail_percentile"`
	Windows        int       `json:"windows"`
	LowRate        float64   `json:"low_rate"`
	HighRate       float64   `json:"high_rate"`
	// Shares of --seconds given to the closed-loop phases, the low and
	// high fixed-rate phases, and each ladder rung. The closed-loop and
	// low-rate shares are split over Segments alternating segments.
	Segments    int     `json:"segments"`
	ClosedShare float64 `json:"closed_share"`
	// ClosedMaxRate sizes the closed-loop request pool (requests/second).
	ClosedMaxRate float64 `json:"closed_max_rate"`
	LowShare      float64 `json:"low_share"`
	HighShare     float64 `json:"high_share"`
	RungShare     float64 `json:"rung_share"`
}

// moves names an end-to-end metric a per-layer metric should move, on one
// workload. Expect is empty for "should move", "small" where the layer's
// share of the time predicts a small effect, and "none" where the workload
// bypasses the layer.
type moves struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
	Expect   string `json:"expect,omitempty"`
}

type benchSpec struct {
	DefaultSeed   int64                  `json:"default_seed"`
	HoldoutSeed   int64                  `json:"holdout_seed"`
	SetupRepeats  int                    `json:"setup_repeats"`
	Compile       map[string]compileSpec `json:"compile"`
	Serve         serveSpec              `json:"serve"`
	PerLayerMoves map[string][]moves     `json:"per_layer_moves"`
}

func loadSpec() (benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return s, fmt.Errorf("spec.json: %w", err)
	}
	return s, nil
}
