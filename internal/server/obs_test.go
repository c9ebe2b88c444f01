package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"telamalloc/internal/obs"
	"telamalloc/internal/workload"
)

// scrapeText renders a registry in Prometheus exposition format.
func scrapeText(r *obs.Registry) string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

// metricValue extracts one series' sample value from exposition text.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("series %s: bad sample %q: %v", series, rest, err)
		}
		return v
	}
	t.Fatalf("series %s not found in scrape:\n%s", series, text)
	return 0
}

// syncBuffer is a concurrency-safe tracer sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestMetricsScrapeMatchesSnapshot pins the func-backed ledger contract: a
// /metrics scrape after drain reports exactly the numbers Snapshot does,
// and the serve-path histograms count exactly the admitted requests.
func TestMetricsScrapeMatchesSnapshot(t *testing.T) {
	r := obs.NewRegistry()
	s := New(Config{Workers: 2, Obs: r})
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(context.Background(), Request{Problem: easyProblem()}); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	if _, err := s.Submit(context.Background(), Request{Problem: tightProblem(t)}); err != nil {
		t.Fatalf("submit tight: %v", err)
	}
	mustDrain(t, s)

	c := s.Snapshot()
	text := scrapeText(r)
	for series, want := range map[string]int64{
		"telamalloc_server_submitted_total":                  c.Submitted,
		"telamalloc_server_admitted_total":                   c.Admitted,
		`telamalloc_server_outcomes_total{outcome="solved"}`: c.Solved,
		`telamalloc_server_outcomes_total{outcome="failed"}`: c.Failed,
		`telamalloc_server_outcomes_total{outcome="shed"}`:   c.Shed,
		`telamalloc_server_cache_events_total{event="hit"}`:  c.CacheHits,
		`telamalloc_server_cache_events_total{event="miss"}`: c.CacheMisses,
		"telamalloc_server_queue_wait_seconds_count":         c.Admitted,
		"telamalloc_server_service_seconds_count":            c.Admitted,
		"telamalloc_server_queue_depth":                      0,
	} {
		if got := metricValue(t, text, series); got != float64(want) {
			t.Errorf("%s = %v, scrape disagrees with ledger value %d", series, got, want)
		}
	}
	if c.Solved < 5 {
		t.Errorf("solved = %d, want at least the 5 submissions", c.Solved)
	}
	// The solver's own telemetry must land in the same registry: the tight
	// problem forced a real search through the pipeline.
	if v := metricValue(t, text, "telamalloc_solver_solves_total"); v < 1 {
		t.Errorf("solver solves = %v, want >= 1 (search stage ran)", v)
	}
	assertBucketsMonotone(t, text, "telamalloc_server_queue_wait_seconds_bucket")
}

// assertBucketsMonotone checks the cumulative bucket invariant for every
// labelled series of a histogram family in the scrape.
func assertBucketsMonotone(t *testing.T, text, bucketSeries string) {
	t.Helper()
	if err := bucketsMonotone(text, bucketSeries); err != nil {
		t.Fatal(err)
	}
}

// bucketsMonotone is the goroutine-safe form: it returns the violation
// instead of failing the test, so mid-flight scraper goroutines can use it.
func bucketsMonotone(text, bucketSeries string) error {
	last := -1.0
	n := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, bucketSeries) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return fmt.Errorf("bad bucket line %q: %v", line, err)
		}
		if v < last {
			return fmt.Errorf("bucket counts not monotone at %q (prev %v)", line, last)
		}
		last = v
		n++
	}
	if n == 0 {
		return fmt.Errorf("no %s series in scrape", bucketSeries)
	}
	return nil
}

// TestTraceSpanBalance floods a four-worker server with a mix of solvable,
// degraded, and caller-cancelled requests and asserts the tracer's
// open/close accounting balances — the invariant that proves no lifecycle
// path leaks a root span even when requests run concurrently or the caller
// gives up first. Run under -race by `make race`.
func TestTraceSpanBalance(t *testing.T) {
	var sink syncBuffer
	tr := obs.NewTracer(&sink)
	s := New(Config{Workers: 4, Obs: obs.NewRegistry(), Tracer: tr})

	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%4 == 3 {
				c, cancel := context.WithCancel(ctx)
				cancel()
				ctx = c
			}
			var p Problem
			switch i % 3 {
			case 0:
				p = easyProblem()
			case 1:
				p = fromInternal(workload.Random(int64(i), 110))
			default:
				p = infeasibleProblem()
			}
			_, _ = s.Submit(ctx, Request{Problem: p, TraceID: fmt.Sprintf("req-%d", i)})
		}(i)
	}
	wg.Wait()
	mustDrain(t, s)

	opened, closed := tr.Balance()
	if opened != closed {
		t.Fatalf("span balance broken: opened %d, closed %d", opened, closed)
	}
	if opened < n {
		t.Errorf("opened %d spans, want at least one root span per request (%d)", opened, n)
	}
	if tr.Dropped() != 0 {
		t.Errorf("tracer dropped %d spans", tr.Dropped())
	}

	// Every emitted line must be whole, schema-valid JSON.
	sc := bufio.NewScanner(strings.NewReader(sink.String()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines, roots := 0, 0
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		if rec.Span == "" {
			t.Fatalf("span record without a name: %q", sc.Text())
		}
		if rec.Span == "request" {
			roots++
			if rec.Attrs["outcome"] == nil {
				t.Fatalf("root span without outcome: %q", sc.Text())
			}
		}
		lines++
	}
	if roots != n {
		t.Errorf("root spans = %d, want exactly one per request (%d)", roots, n)
	}
	if int64(lines) != closed {
		t.Errorf("trace lines = %d, closed spans = %d", lines, closed)
	}
}

// TestObsSoak is the `make obssoak` entry point: a four-worker server under
// sustained mixed load, scraped mid-flight, with the ledger ↔ histogram
// agreement checked after drain. Mid-flight scrapes only assert invariants
// that hold at any instant (bucket monotonicity, parseability).
func TestObsSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak; skipped in -short")
	}
	r := obs.NewRegistry()
	var sink syncBuffer
	tr := obs.NewTracer(&sink)
	s := New(Config{Workers: 4, QueueDepth: 16, Obs: r, Tracer: tr,
		RequestTimeout: 2 * time.Second})

	stop := make(chan struct{})
	var scraperWG sync.WaitGroup
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			text := scrapeText(r)
			// t.Errorf is goroutine-safe; Fatalf is not, so scrape checks
			// report and bail instead of aborting.
			if err := bucketsMonotone(text, "telamalloc_server_queue_wait_seconds_bucket"); err != nil {
				t.Errorf("mid-flight scrape: %v", err)
				return
			}
			if !strings.Contains(text, "telamalloc_server_queue_depth ") {
				t.Errorf("mid-flight scrape missing queue depth gauge")
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 24; i++ {
				var p Problem
				switch rng.Intn(3) {
				case 0:
					p = easyProblem()
				case 1:
					p = fromInternal(workload.Random(int64(c*100+i), 110))
				default:
					p = infeasibleProblem()
				}
				ctx := context.Background()
				if rng.Intn(5) == 0 {
					cc, cancel := context.WithTimeout(ctx, time.Duration(rng.Intn(3))*time.Millisecond)
					defer cancel()
					ctx = cc
				}
				_, _ = s.Submit(ctx, Request{Problem: p, TraceID: fmt.Sprintf("c%d-%d", c, i)})
			}
		}(c)
	}
	wg.Wait()
	mustDrain(t, s)
	close(stop)
	scraperWG.Wait()

	// After drain the scrape and the ledger must agree exactly, and every
	// admitted request must have passed through both histograms.
	c := s.Snapshot()
	text := scrapeText(r)
	for series, want := range map[string]int64{
		"telamalloc_server_submitted_total":                     c.Submitted,
		"telamalloc_server_admitted_total":                      c.Admitted,
		`telamalloc_server_outcomes_total{outcome="solved"}`:    c.Solved,
		`telamalloc_server_outcomes_total{outcome="degraded"}`:  c.Degraded,
		`telamalloc_server_outcomes_total{outcome="cancelled"}`: c.Cancelled,
		"telamalloc_server_queue_wait_seconds_count":            c.Admitted,
		"telamalloc_server_service_seconds_count":               c.Admitted,
	} {
		if got := metricValue(t, text, series); got != float64(want) {
			t.Errorf("%s = %v, ledger says %d", series, got, want)
		}
	}
	if c.Submitted != clients*24 {
		t.Errorf("submitted = %d, want %d", c.Submitted, clients*24)
	}
	if opened, closed := tr.Balance(); opened != closed {
		t.Errorf("span balance broken after soak: opened %d, closed %d", opened, closed)
	}
	if tr.Dropped() != 0 {
		t.Errorf("tracer dropped %d spans", tr.Dropped())
	}
}
