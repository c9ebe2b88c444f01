package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one operation
// share Op; Parent is the ID of the enclosing span (0 for a root).
// Reported marks a span whose interval the program reported
// (StageReport.Elapsed, a report's queue_wait_ms/elapsed_ms) rather than
// one the benchmark timed itself.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Op       int64  `json:"op"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Reported bool   `json:"reported,omitempty"`
}

// tracer keeps spans in memory; nil is a valid, disabled tracer.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span over [start, end) and returns its ID (0 when
// disabled).
func (t *tracer) add(op, parent int64, name string, start, end time.Time, reported bool) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(), Reported: reported})
	return id
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(op, parent int64, name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	t.add(op, parent, name, t0, t1, false)
	return t1.Sub(t0)
}

// write dumps every span as JSON Lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the summed self time in ms: a span's
// duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		covered := coveredNS(s, children[s.ID])
		out[s.Name] += float64(s.EndNS-s.StartNS-covered) / 1e6
	}
	return out
}

// coveredNS is the length of the union of the children's intervals,
// clipped to the parent.
func coveredNS(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// printSelfTimes writes the per-name self times, largest first.
func printSelfTimes(t *tracer, ops int) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]] > st[names[j]] })
	fmt.Printf("# self time per layer over %d ops (ms per op):", ops)
	for _, n := range names {
		fmt.Printf(" %s=%.4f", n, st[n]/float64(max(ops, 1)))
	}
	fmt.Println()
}
