package main

import (
	"fmt"
	"math"
	"math/rand"

	"telamalloc"
	"telamalloc/internal/check"
	"telamalloc/internal/workload"
)

// instance is one generated model graph; atRatio sets its memory.
type instance struct {
	model string
	lb    int64 // contention lower bound (independent recomputation)
	p     telamalloc.Problem
}

// corpus builds the instance corpus of a compile workload: instances graphs
// per model, from generator seeds first..first+instances-1.
func corpus(set string, instances int, first int64) ([]instance, error) {
	var models []workload.Model
	switch set {
	case "Models":
		models = workload.Models
	case "StressModels":
		models = workload.StressModels
	default:
		return nil, fmt.Errorf("unknown model set %q", set)
	}
	var out []instance
	for k := first; k < first+int64(instances); k++ {
		for _, m := range models {
			out = append(out, newInstance(m, k))
		}
	}
	return out, nil
}

// corpusFirstSeed is the first generator seed of the corpus a run solves.
// Every seed but the held-out one solves the default corpus (generator
// seeds 1..instances), each in its own order; the held-out seed solves the
// next block of graphs, which no other seed sees. A compile run solves a
// few dozen graphs and one in fifty costs seconds (a spill), so graphs
// drawn per seed would move throughput from seed to seed by more than any
// change worth measuring, and the runs that judge a change use many seeds.
func corpusFirstSeed(spec compileSpec, seed, holdoutSeed int64) int64 {
	if seed == holdoutSeed {
		return 1 + int64(spec.Instances)
	}
	return 1
}

// newInstance generates one graph of model m from a generator seed.
func newInstance(m workload.Model, genSeed int64) instance {
	p := check.ToPublic(m.Generate(genSeed))
	p.Name = fmt.Sprintf("%s#%d", m.Name, genSeed)
	return instance{model: m.Name, lb: check.LowerBound(p), p: p}
}

// phi's fractional part drives a low-discrepancy ratio sequence: the j-th
// draw lands at frac(u + j*phi) of the ratio range, so any prefix of the
// sequence covers the range evenly.
const phi = 0.6180339887498949

// ratioDraws draws a seeded starting point in [0,1) for each of n ratio
// sequences.
func ratioDraws(rng *rand.Rand, n int) []float64 {
	u := make([]float64, n)
	for i := range u {
		u[i] = rng.Float64()
	}
	return u
}

// atRatio returns the instance with memory set to ratio × lower bound.
func (in instance) atRatio(ratio float64) telamalloc.Problem {
	p := in.p
	p.Memory = int64(math.Ceil(float64(in.lb) * ratio))
	return p
}

// ratioFor is the j-th ratio of the sequence that starts at u.
func ratioFor(u float64, j int, lo, hi float64) float64 {
	f := math.Mod(u+float64(j)*phi, 1)
	return lo + (hi-lo)*f
}
