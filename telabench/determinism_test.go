package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCountsRepeatOnOneSeed runs each compile workload twice for one pass
// on one seed: the machine-independent counts, answer hash included, must
// agree exactly.
func TestCountsRepeatOnOneSeed(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"compile-tight", "compile-mixed", "compile-large"} {
		var got []counts
		for i := 0; i < 2; i++ {
			res, err := runCompile(name, sp.Compile[name], sp, 11, 0.001, false, "")
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.rejected != 0 {
				t.Fatalf("%s: %d checker rejections", name, res.rejected)
			}
			got = append(got, *res.counts)
		}
		a, b := got[0], got[1]
		a.hash, b.hash = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: counts differ between runs on one seed:\n%s\n%s", name, a, b)
		}
		if a.Ops == 0 || a.Hash == "" {
			t.Errorf("%s: empty counts %s", name, a)
		}
	}
}

// TestServeCountsRepeatOnOneSeed sends the first requests of one seed's
// stream, one at a time, to two fresh daemons: the counts, answer hash
// included, must agree exactly.
func TestServeCountsRepeatOnOneSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts telamallocd")
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "telamallocd")
	if out, err := exec.Command("go", "build", "-o", bin, "telamalloc/cmd/telamallocd").CombinedOutput(); err != nil {
		t.Fatalf("build telamallocd: %v\n%s", err, out)
	}
	var got []counts
	for i := 0; i < 2; i++ {
		d, _, err := startDaemon(bin)
		if err != nil {
			t.Fatal(err)
		}
		k, err := dial(d.addr)
		if err != nil {
			d.stop()
			t.Fatal(err)
		}
		tot := serveTotals{cnt: newCounts()}
		err = countPhase(k, newRequestStream(sp.Serve, 5), 80, &tot)
		k.close()
		d.stop()
		if err != nil {
			t.Fatal(err)
		}
		if tot.rejected != 0 {
			t.Fatalf("%d checker rejections", tot.rejected)
		}
		got = append(got, tot.cnt)
	}
	a, b := got[0], got[1]
	a.hash, b.hash = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("counts differ between runs on one seed:\n%s\n%s", a, b)
	}
	if a.Ops != 80 || a.Hash == "" {
		t.Errorf("counts cover %d requests, want 80: %s", a.Ops, a)
	}
}

// TestServeStreamRepeatsFromSeed checks the serve-mixed request stream is a
// function of the seed alone.
func TestServeStreamRepeatsFromSeed(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed int64) []byte {
		s := newRequestStream(sp.Serve, seed)
		var all []any
		repeats := 0
		for i := 0; i < 200; i++ {
			req, rep := s.request()
			if rep {
				repeats++
			}
			all = append(all, req)
		}
		if repeats < 60 || repeats > 140 {
			t.Errorf("seed %d: %d of 200 requests repeat, want about half", seed, repeats)
		}
		return mustJSON(all)
	}
	if string(draw(3)) != string(draw(3)) {
		t.Fatal("same seed gave different request streams")
	}
	if string(draw(3)) == string(draw(4)) {
		t.Fatal("different seeds gave the same request stream")
	}
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json, the metrics this
// program prints, and spec.json's per-layer map in step.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	// compile-large and serve-mixed run but are not gated: see README.md.
	if want := []string{"compile-tight", "compile-mixed"}; !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEndDefs) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", bf.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayerDefs) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", bf.PerLayer, perLayerDefs)
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, d := range endToEndDefs {
		e2e[d.Name] = true
	}
	for _, d := range perLayerDefs {
		mv := sp.PerLayerMoves[d.Name]
		if len(mv) == 0 {
			t.Errorf("spec.json per_layer_moves has no entry for %s", d.Name)
		}
		for _, m := range mv {
			if !e2e[m.Metric] || !contains(workloads, m.Workload) {
				t.Errorf("%s moves unknown %s on %s", d.Name, m.Metric, m.Workload)
			}
		}
	}
	if len(sp.PerLayerMoves) != len(perLayerDefs) {
		t.Errorf("spec.json maps %d per-layer metrics, program reports %d", len(sp.PerLayerMoves), len(perLayerDefs))
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
