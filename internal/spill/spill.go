// Package spill implements the fallback the paper's introduction describes
// for when the allocator cannot find a packing: "the framework must apply
// techniques such as rematerialization or sharding to reduce on-chip memory
// pressure at the expense of extra computations". This package plans which
// buffers to demote to off-chip memory (equivalently: rematerialise) so
// that the remaining set becomes allocatable, trying to give up as little
// on-chip traffic as possible.
//
// The planner is greedy: while the allocator fails, it inspects the most
// contended time range and evicts the live buffer with the lowest
// cost-per-byte-of-relief, then retries. Solving the eviction set optimally
// is itself NP-hard; the greedy matches what production compilers do.
package spill

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"telamalloc/internal/buffers"
	"telamalloc/internal/core"
	"telamalloc/internal/heuristics"
)

// ErrCannotFit is returned when even spilling every eligible buffer leaves
// the problem unsolvable (e.g. a single pinned buffer exceeds memory).
var ErrCannotFit = errors.New("spill: problem unsolvable even with maximum spilling")

// Request configures a spill plan.
type Request struct {
	// Problem is the allocation problem to make feasible. Not mutated.
	Problem *buffers.Problem
	// Weights[i] is the cost of spilling buffer i (e.g. bytes re-fetched
	// from DRAM, or recomputation cost for rematerialisation). Nil means
	// every buffer costs its size.
	Weights []int64
	// Pinned[i] marks buffers that must stay on-chip (e.g. DMA targets).
	// Nil means everything is spillable.
	Pinned []bool
	// Allocator packs the retained set; typically TelaMalloc.
	Allocator heuristics.Allocator
	// MaxSpills caps evictions (0 = no cap).
	MaxSpills int
	// Ctx, when non-nil, cancels planning: it is checked before every
	// allocation attempt, and allocators with an AllocateContext method
	// (core.Allocator) observe it mid-solve too.
	Ctx context.Context
}

// ErrCancelled is returned when Request.Ctx is done before a plan is found.
var ErrCancelled = errors.New("spill: planning cancelled")

// ErrAllocatorPanic is wrapped when the packing allocator panics during
// planning. The panic is contained, but planning aborts: a crashing
// allocator would fail every retained set, and evicting buffers to work
// around it would misreport an internal failure as a capacity problem.
var ErrAllocatorPanic = errors.New("spill: allocator panicked")

// contextAllocator is an allocator that can observe cancellation mid-solve.
type contextAllocator interface {
	AllocateContext(ctx context.Context, p *buffers.Problem) (*buffers.Solution, error)
}

// Plan is the result of planning.
type Plan struct {
	// Solution places every retained buffer; spilled buffers have offset -1.
	Solution *buffers.Solution
	// Spilled lists the evicted buffer IDs in eviction order.
	Spilled []int
	// SpillCost is the summed weight of evicted buffers.
	SpillCost int64
	// Attempts counts allocator invocations.
	Attempts int
}

// Make plans spills until the allocator succeeds. If the problem is already
// feasible, no buffers are spilled.
func Make(req Request) (*Plan, error) {
	p := req.Problem
	n := len(p.Buffers)
	if req.Allocator == nil {
		return nil, errors.New("spill: no allocator provided")
	}
	weights := req.Weights
	if weights == nil {
		weights = make([]int64, n)
		for i, b := range p.Buffers {
			weights[i] = b.Size
		}
	} else if len(weights) != n {
		return nil, fmt.Errorf("spill: %d weights for %d buffers", len(weights), n)
	}
	if req.Pinned != nil && len(req.Pinned) != n {
		return nil, fmt.Errorf("spill: %d pinned flags for %d buffers", len(req.Pinned), n)
	}
	pinned := func(i int) bool { return req.Pinned != nil && req.Pinned[i] }

	retained := make([]bool, n)
	for i := range retained {
		retained[i] = true
	}
	plan := &Plan{}
	for {
		if req.Ctx != nil && req.Ctx.Err() != nil {
			return nil, fmt.Errorf("%w after %d attempts: %v", ErrCancelled, plan.Attempts, req.Ctx.Err())
		}
		sub, back := subset(p, retained)
		plan.Attempts++
		sol, err := allocate(req, sub)
		if err == nil {
			full := buffers.NewSolution(n)
			for subID, off := range sol.Offsets {
				full.Offsets[back[subID]] = off
			}
			plan.Solution = full
			return plan, nil
		}
		if errors.Is(err, ErrAllocatorPanic) || errors.Is(err, core.ErrPanic) {
			return nil, err
		}
		if req.MaxSpills > 0 && len(plan.Spilled) >= req.MaxSpills {
			return nil, fmt.Errorf("%w: spill cap %d reached", ErrCannotFit, req.MaxSpills)
		}
		victim := chooseVictim(p, retained, weights, pinned)
		if victim < 0 {
			return nil, ErrCannotFit
		}
		retained[victim] = false
		plan.Spilled = append(plan.Spilled, victim)
		plan.SpillCost += weights[victim]
	}
}

// allocate runs one packing attempt inside a containment boundary — a
// panicking allocator becomes a failed attempt-chain, not a crashed planner
// — and forwards the request context to allocators that can observe it.
func allocate(req Request, sub *buffers.Problem) (sol *buffers.Solution, err error) {
	defer func() {
		if r := recover(); r != nil {
			sol, err = nil, fmt.Errorf("%w: %v", ErrAllocatorPanic, r)
		}
	}()
	if cm, ok := req.Allocator.(contextAllocator); ok && req.Ctx != nil {
		return cm.AllocateContext(req.Ctx, sub)
	}
	return req.Allocator.Allocate(sub)
}

// chooseVictim picks the cheapest useful eviction: among buffers live during
// the currently most-contended time range, the one with the lowest
// weight-per-byte-of-relief (ties: larger size first, then lower ID).
// Returns -1 when nothing is evictable.
func chooseVictim(p *buffers.Problem, retained []bool, weights []int64, pinned func(int) bool) int {
	sub, back := subset(p, retained)
	if len(sub.Buffers) == 0 {
		return -1
	}
	prof := buffers.Contention(sub)
	var peakStep buffers.ContentionStep
	for _, s := range prof.Steps {
		if s.Contention > peakStep.Contention {
			peakStep = s
		}
	}
	type cand struct {
		id    int
		score float64 // weight per byte of relief; lower is better
		size  int64
	}
	var cands []cand
	for subID, b := range sub.Buffers {
		orig := back[subID]
		if pinned(orig) {
			continue
		}
		if b.Start < peakStep.End && peakStep.Start < b.End {
			cands = append(cands, cand{
				id:    orig,
				score: float64(weights[orig]) / float64(b.Size),
				size:  b.Size,
			})
		}
	}
	if len(cands) == 0 {
		return -1
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score < cands[j].score
		}
		if cands[i].size != cands[j].size {
			return cands[i].size > cands[j].size
		}
		return cands[i].id < cands[j].id
	})
	return cands[0].id
}

// subset extracts the retained buffers as a normalized problem plus the
// mapping back to original IDs.
func subset(p *buffers.Problem, retained []bool) (*buffers.Problem, []int) {
	sub := &buffers.Problem{Memory: p.Memory, Name: p.Name}
	var back []int
	for i, b := range p.Buffers {
		if retained[i] {
			sub.Buffers = append(sub.Buffers, b)
			back = append(back, i)
		}
	}
	sub.Normalize()
	return sub, back
}
