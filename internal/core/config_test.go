package core

import (
	"testing"
	"time"

	"telamalloc/internal/buffers"
	"telamalloc/internal/telamon"
)

func TestDeadlineStopsSearch(t *testing.T) {
	// A hard instance with an already-expired deadline must return Budget
	// almost immediately.
	p := &buffers.Problem{Memory: 30}
	for i := 0; i < 30; i++ {
		p.Buffers = append(p.Buffers, buffers.Buffer{Start: 0, End: 10, Size: 3})
	}
	p.Normalize()
	start := time.Now()
	res := Solve(p, Config{Deadline: time.Now().Add(-time.Second)})
	if time.Since(start) > 5*time.Second {
		t.Fatalf("expired deadline ignored for %v", time.Since(start))
	}
	if res.Status == telamon.Solved {
		// Solving before the first deadline check is acceptable for easy
		// instances; this one packs exactly, so a quick solve is fine too.
		if err := res.Solution.Validate(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSubProblemMapping(t *testing.T) {
	p := &buffers.Problem{Memory: 8, Name: "orig"}
	for i := int64(0); i < 4; i++ {
		p.Buffers = append(p.Buffers, buffers.Buffer{Start: i, End: i + 1, Size: int64(i) + 1})
	}
	p.Normalize()
	sub, back := subProblem(p, []int{2, 0})
	if sub.Name != "orig" || sub.Memory != 8 {
		t.Errorf("metadata lost: %+v", sub)
	}
	if len(sub.Buffers) != 2 || sub.Buffers[0].Size != 3 || sub.Buffers[1].Size != 1 {
		t.Errorf("wrong buffers: %+v", sub.Buffers)
	}
	if sub.Buffers[0].ID != 0 || sub.Buffers[1].ID != 1 {
		t.Error("sub-problem not normalized")
	}
	if back[0] != 2 || back[1] != 0 {
		t.Errorf("back-mapping wrong: %v", back)
	}
	// nil ids = identity.
	all, back2 := subProblem(p, nil)
	if len(all.Buffers) != 4 || back2[3] != 3 {
		t.Errorf("identity mapping wrong: %v", back2)
	}
}

func TestAccumulateStats(t *testing.T) {
	var dst telamon.Stats
	accumulate(&dst, telamon.Stats{Steps: 5, Placements: 3, MinorBacktracks: 2, MajorBacktracks: 1, MaxDepth: 7})
	accumulate(&dst, telamon.Stats{Steps: 10, MaxDepth: 4})
	if dst.Steps != 15 || dst.Placements != 3 || dst.MinorBacktracks != 2 || dst.MajorBacktracks != 1 {
		t.Errorf("sums wrong: %+v", dst)
	}
	if dst.MaxDepth != 7 {
		t.Errorf("MaxDepth = %d, want max not sum", dst.MaxDepth)
	}
}

func TestChainCancel(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	never, always := func() bool { return false }, func() bool { return true }
	for _, tc := range []struct {
		name string
		done <-chan struct{}
		prev func() bool
		want bool
	}{
		{"done closed, no prev", closed, nil, true},
		{"done closed, prev quiet", closed, never, true},
		{"done open, prev fires", make(chan struct{}), always, true},
		{"done open, prev quiet", make(chan struct{}), never, false},
		{"done open, no prev", make(chan struct{}), nil, false},
		{"nil done, no prev", nil, nil, false},
		{"nil done, prev quiet", nil, never, false},
		{"nil done, prev fires", nil, always, true},
	} {
		if got := ChainCancel(tc.done, tc.prev)(); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}
