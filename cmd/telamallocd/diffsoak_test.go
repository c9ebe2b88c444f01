// The differential soak (make diffsoak): a client fleet drives a seeded
// adversarial stream through a live daemon while the same stream runs
// through a bare Allocator, and every served verdict must match the direct
// run byte-for-byte on the canonical response — across the cache-hit,
// dedup, and brownout-configured-but-idle paths. Every wire report
// is additionally re-verified by the independent checker (internal/check),
// which shares no code with the solver's own validators.
package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"telamalloc"
	"telamalloc/internal/check"
	"telamalloc/internal/client"
	"telamalloc/internal/server"
	"telamalloc/internal/wire"
)

// diffProblem is one instance of the soak stream with its precomputed
// direct-arm expectation.
type diffProblem struct {
	problem  telamalloc.Problem
	buffers  []wire.Buffer
	expected []byte // CanonicalJSON of the direct Allocator run
}

const diffSoakSteps = 40_000

// buildDiffStream generates the adversarial stream and solves each instance
// once through a bare Allocator — the reference arm every served response
// is compared against.
func buildDiffStream(t *testing.T, seeds []int64) []diffProblem {
	t.Helper()
	a, err := telamalloc.New(telamalloc.WithMaxSteps(diffSoakSteps))
	if err != nil {
		t.Fatal(err)
	}
	var stream []diffProblem
	for _, fam := range check.DefaultFamilies() {
		for _, seed := range seeds {
			p := fam.Generate(seed)
			p.Name = fmt.Sprintf("%s-%d", p.Name, seed)
			res, perr := a.Pipeline(context.Background(), p)
			dp := diffProblem{
				problem:  p,
				expected: server.ResponseFrom(res, perr).CanonicalJSON(),
			}
			for _, b := range p.Buffers {
				dp.buffers = append(dp.buffers, wire.Buffer{
					Start: b.Start, End: b.End, Size: b.Size, Align: b.Align,
				})
			}
			stream = append(stream, dp)
		}
	}
	return stream
}

// canonicalOfReport projects a wire report onto the server's canonical
// response form, so served bytes and direct bytes compare through the same
// serialiser.
func canonicalOfReport(rep *client.Report) []byte {
	r := server.Response{
		Outcome:          server.Outcome(rep.Outcome),
		Winner:           rep.Winner,
		Offsets:          rep.Offsets,
		Spilled:          rep.Spilled,
		SpillCost:        rep.SpillCost,
		LowerBound:       rep.LowerBound,
		Memory:           rep.Memory,
		SkippedByBreaker: rep.SkippedByBreaker,
		Err:              rep.Error,
	}
	return r.CanonicalJSON()
}

// runDiffArm floods one daemon configuration with the stream — every
// instance submitted by every fleet worker, so identical in-flight requests
// dedup and repeats hit the cache — and asserts byte-identity plus
// checker-cleanness for each report. Returns how many reports were served
// from the cache and how many were deduped.
func runDiffArm(t *testing.T, arm string, cfg server.Config, stream []diffProblem) (cacheHits, deduped int64) {
	t.Helper()
	h := startDaemon(t, cfg, 0, 64, 1<<20, 5*time.Second, nil)

	const fleet = 6
	var wg sync.WaitGroup
	var mu sync.Mutex // guards cacheHits/deduped and t across workers
	clients := make([]*client.Client, fleet)
	for w := range clients {
		c, err := client.Dial(client.Config{Addr: h.addr, Seed: int64(w + 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[w] = c
	}
	for w := 0; w < fleet; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, dp := range stream {
				id := fmt.Sprintf("%s-w%d-i%d", arm, w, i)
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				rep, err := clients[w].Submit(ctx, client.Request{
					ID:       id,
					Name:     dp.problem.Name,
					Memory:   dp.problem.Memory,
					Buffers:  dp.buffers,
					MaxSteps: diffSoakSteps,
				})
				cancel()
				mu.Lock()
				func() {
					defer mu.Unlock()
					if err != nil {
						t.Errorf("[%s] %s: submit: %v", arm, id, err)
						return
					}
					if got := canonicalOfReport(rep); !bytes.Equal(got, dp.expected) {
						t.Errorf("[%s] %s: served response diverged from the direct run\n got: %s\nwant: %s",
							arm, id, got, dp.expected)
					}
					wreq := wire.Request{ID: id, Name: dp.problem.Name, Memory: dp.problem.Memory, Buffers: dp.buffers}
					if crep := check.Wire(wreq, *rep); !crep.OK() {
						t.Errorf("[%s] %s: independent checker rejected the report: %v", arm, id, crep.Err())
					}
					if rep.CacheHit {
						cacheHits++
					}
					if rep.Deduped {
						deduped++
					}
				}()
			}
		}(w)
	}
	wg.Wait()
	return cacheHits, deduped
}

func TestDiffSoak(t *testing.T) {
	if os.Getenv("TELAMALLOC_DIFFSOAK") == "" {
		t.Skip("set TELAMALLOC_DIFFSOAK=1 (make diffsoak) to run the differential soak")
	}

	stream := buildDiffStream(t, []int64{1, 2, 3, 4})

	// Queue depth is sized to the whole fleet's flood: a shed would be a
	// capacity artefact, not a differential signal, so the soak leaves the
	// overload machinery no reason to engage.
	depth := 6*len(stream) + 16

	arms := []struct {
		name string
		cfg  server.Config
	}{
		{"plain", server.Config{Workers: 4, QueueDepth: depth}},
		// Brownout configured but idle: thresholds far above anything this
		// load can reach. The controller being armed must not perturb a
		// single byte (the no-overload identity the brownout PR promised).
		{"brownout-idle", server.Config{Workers: 4, QueueDepth: depth, Brownout: server.BrownoutConfig{
			Target:      time.Hour,
			StepUpAfter: 1 << 30,
		}}},
	}
	for _, arm := range arms {
		hits, deduped := runDiffArm(t, arm.name, arm.cfg, stream)
		t.Logf("[%s] cache hits: %d, deduped: %d", arm.name, hits, deduped)
		// Each worker submits the same stream, so repeats are guaranteed:
		// the cache/dedup fast paths must actually fire for the arm to have
		// tested them.
		if hits+deduped == 0 {
			t.Errorf("[%s] fleet repeats produced no cache hits and no dedups; the fast paths went unexercised", arm.name)
		}
	}
}
