// Command telabench is the repository's benchmark: it drives the allocator
// library and the telamallocd service with seeded workloads, checks every
// answer, and prints every metric by name with its unit.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash telabench/run.sh --workload compile-tight --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	compile-tight  closed loop, one caller, Pixel-6 proxies at 100-105% of
//	               the contention lower bound
//	compile-mixed  the same loop over the Pixel-6 proxies at 100-120% with
//	               serve-mixed's step pot
//	compile-large  the same loop over the stress-scale proxies at 100-110%
//	serve-mixed    open-loop Poisson arrivals over loopback TCP into a
//	               telamallocd subprocess; half the requests repeat earlier
//	               problems, permuted and time-shifted
//
// With --trace 0 the last line holds the end-to-end metrics; with --trace 1
// a separate traced run records spans (written as JSON Lines under
// .bench_build/) and the last line holds the per-layer metrics. Earlier
// lines, each starting with '#', give provenance, the machine-independent
// counts, and the details behind each metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// result is what one workload run reports.
type result struct {
	attempted, failed, rejected int
	metrics                     map[string]float64
	counts                      *counts
	traceOverheadMS             float64   // traced minus untraced p50 latency
	passRates                   []float64 // compile workloads: solves/s of each pass
	extra                       map[string]any
}

// endToEndDefs is every end-to-end metric, in report order.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"solves_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"solved_ratio", "ratio", "higher"},
	{"alloc_mb_per_op", "MB", "lower"},
}

var workloads = []string{"compile-tight", "compile-mixed", "compile-large", "serve-mixed"}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed    = flag.Int64("seed", 0, "input seed (0 = the spec's default seed)")
		seconds = flag.Float64("seconds", 10, "measured run length in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outDir  = flag.String("out", ".bench_build", "directory for span files and result records")
	)
	flag.Parse()
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "telabench: %v\n", err)
		return 2
	}
	if *seed == 0 {
		*seed = sp.DefaultSeed
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "telabench: --seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "telabench: %v\n", err)
		return 2
	}
	traced := *trace == 1
	prov := provenance(*name, *seed, *seconds, traced)
	fmt.Printf("# provenance: %s\n", mustJSON(prov))
	spanPath := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))

	steal0, total0 := cpuSteal()
	var res result
	switch {
	case *name == "serve-mixed":
		res, err = runServe(sp, *seed, *seconds, traced, spanPath)
	case sp.Compile[*name].Instances > 0:
		res, err = runCompile(*name, sp.Compile[*name], sp, *seed, *seconds, traced, spanPath)
	default:
		fmt.Fprintf(os.Stderr, "telabench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloads, ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "telabench: %s: %v\n", *name, err)
		return 1
	}

	steal1, total1 := cpuSteal()
	stealShare := float64(steal1-steal0) / float64(max(total1-total0, 1))
	fmt.Printf("# host: CPU steal %.3f of all CPU time during the run\n", stealShare)

	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "telabench: %s: metric %s was not measured (%v)\n", *name, d.Name, v)
			return 1
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
		fmt.Printf("# metric %-34s %14.6g %s\n", d.Name, v, d.Unit)
	}
	correct := res.rejected == 0
	record := map[string]any{"provenance": prov, "metrics": metrics, "attempted": res.attempted,
		"failed": res.failed, "checker_rejections": res.rejected, "counts": res.counts, "host_steal_share": stealShare}
	if traced {
		record["trace_overhead_ms"] = res.traceOverheadMS
	}
	if res.passRates != nil {
		record["pass_solves_per_s"] = res.passRates
	}
	for k, v := range res.extra {
		record[k] = v
	}
	recPath := filepath.Join(*outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", *name, *seed, *trace))
	if err := os.WriteFile(recPath, append(mustJSON(record), '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "telabench: write record: %v\n", err)
		return 1
	}
	fmt.Println(string(mustJSON(map[string]any{
		"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})))
	if !correct {
		fmt.Fprintf(os.Stderr, "telabench: %s: %d checker rejections\n", *name, res.rejected)
		return 1
	}
	return 0
}

// provenance records where and how a result was measured.
func provenance(workload string, seed int64, seconds float64, traced bool) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"traced":     traced,
		"commit":     commit(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// commit is the source revision the launcher recorded, if any.
func commit() string {
	if c := strings.TrimSpace(os.Getenv("TELABENCH_COMMIT")); c != "" {
		return c
	}
	return "unknown"
}

// cpuSteal returns the host's steal and total CPU time, in clock ticks,
// from the first line of /proc/stat (zeros where it cannot be read).
func cpuSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// mustJSON marshals values built from maps, strings and numbers, which
// cannot fail except on NaN or infinities, which the benchmark never
// reports.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("telabench: marshal: %v", err))
	}
	return b
}
