package main

import (
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON is the benchmark definition at the repository root.
func benchmarkJSON(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric and workload lists
// of BENCHMARK.json and of the code identical, names and units.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	spec := benchmarkJSON(t)
	for _, tc := range []struct {
		kind string
		json []specMetric
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", tc.kind, len(tc.json), len(tc.code))
			continue
		}
		for i, m := range tc.json {
			if m.Name != tc.code[i].Name || m.Unit != tc.code[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], code %s [%s]",
					tc.kind, i, m.Name, m.Unit, tc.code[i].Name, tc.code[i].Unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, code %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestWorkloadsSmoke runs every workload, untraced and traced, at a toy
// size, and checks that each run is correct and prints every metric
// BENCHMARK.json names.
func TestWorkloadsSmoke(t *testing.T) {
	spec := benchmarkJSON(t)
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := runWorkload(w, paperSeed, 1, traced, true)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, traced, err)
			}
			want, catalogue := spec.EndToEnd, endToEnd
			if traced {
				want, catalogue = spec.PerLayer, perLayer
			}
			sum := rec.summarize(catalogue)
			if !sum.Correct || sum.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d problems %v",
					w.name, traced, sum.Correct, sum.Attempted, rec.Problems)
			}
			// Failed operations are counted, not a correctness failure; late
			// plans are neither: under -race the toy daemon runs slow.
			for _, m := range want {
				got, ok := sum.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%t: metric %s not emitted", w.name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%t: %s in %s, BENCHMARK.json says %s", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics printed, BENCHMARK.json names %d", w.name, traced, len(sum.Metrics), len(want))
			}
		}
	}
	if entries, err := os.ReadDir(os.Getenv("TMPDIR")); err == nil && len(entries) != 0 {
		t.Errorf("workloads left %d entries in the temporary directory", len(entries))
	}
}

func TestVerdict(t *testing.T) {
	parent := newSide([]float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100})
	for _, tc := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"faster everywhere", []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, verdictBetter},
		{"same", []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}, verdictNoWorse},
		{"slower beyond bound", []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}, verdictWorse},
		{"too noisy", []float64{60, 140, 70, 150, 100, 65, 145, 90, 110, 130}, verdictUnresolved},
	} {
		got, _ := verdict(parent, newSide(tc.change), true, 0.1)
		if got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	if got, _ := verdict(parent, parent, false, 0); got != verdictInfo {
		t.Errorf("metric without a bound: verdict %s, want %s", got, verdictInfo)
	}
}

func TestAbsoluteVerdict(t *testing.T) {
	clean := []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	oneRun := []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0.001}
	gap := []float64{0.1703, 0.1703, 0.1703}
	for _, tc := range []struct {
		name   string
		metric string
		a, b   []float64
		want   string
	}{
		{"no failures", "failed_fraction", clean, clean, verdictNoWorse},
		{"failures in one run", "failed_fraction", clean, oneRun, verdictWorse},
		{"fewer failures", "failed_fraction", oneRun, clean, verdictNoWorse},
		{"same gap", "cost_gap_pct", gap, gap, verdictNoWorse},
		{"gap within 0.05 pp", "cost_gap_pct", gap, []float64{0.21, 0.21, 0.21}, verdictNoWorse},
		{"gap beyond 0.05 pp", "cost_gap_pct", gap, []float64{0.23, 0.23, 0.23}, verdictWorse},
		{"smaller gap", "cost_gap_pct", gap, []float64{0.1, 0.1, 0.1}, verdictNoWorse},
	} {
		slack, ok := absoluteRules[tc.metric]
		if !ok {
			t.Fatalf("no absolute rule for %s", tc.metric)
		}
		if got := absoluteVerdict(tc.a, tc.b, slack); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestFingerprintMismatch(t *testing.T) {
	run := func(seed int64, fp string) *runRecord {
		r := newRecord("game-fig7", seed, 1, false)
		r.Fingerprint["fig7.total_cost"] = fp
		return r
	}
	same := []*runRecord{run(1, "5"), run(1, "5"), run(2, "6")}
	if m := fingerprintMismatches(same); len(m) != 0 {
		t.Errorf("identical fingerprints flagged: %v", m)
	}
	differ := []*runRecord{run(1, "5"), run(2, "6"), run(1, "5.000000000000001")}
	if m := fingerprintMismatches(differ); len(m) != 1 {
		t.Errorf("one differing fingerprint, flagged %v", m)
	}
}
