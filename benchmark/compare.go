package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRuns reads the JSON-lines records a --out file accumulated.
func loadRuns(path string) ([]*runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		out = append(out, &r)
	}
	return out, sc.Err()
}

// Verdicts of one metric on one workload.
const (
	verdictBetter     = "better"
	verdictNoWorse    = "no-worse"
	verdictWorse      = "WORSE"
	verdictUnresolved = "unresolved"
	verdictInfo       = "info"
)

// sideStats summarizes one side's runs of a metric.
type sideStats struct {
	vals       []float64
	q1, q2, q3 float64
}

func newSide(vals []float64) sideStats {
	q1, q2, q3 := quartiles(vals)
	return sideStats{vals: vals, q1: q1, q2: q2, q3: q3}
}

// spread is the quartile distance as a share of the median.
func (s sideStats) spread() float64 {
	if s.q2 == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.q2)
}

// verdict applies the rules for a change (b) against its parent (a): a
// gain needs nine tenths of the pairs won and a median difference wider
// than the parent's own quartile spread; a metric whose spread is wider
// than its bound is unresolved unless every run of the change beats every
// run of the parent; otherwise the change is worse only beyond the bound.
func verdict(a, b sideStats, lowerBetter bool, bound float64) (string, float64) {
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	pairs := min(len(a.vals), len(b.vals))
	won := 0
	for i := 0; i < pairs; i++ {
		if better(b.vals[i], a.vals[i]) {
			won++
		}
	}
	frac := 0.0
	if pairs > 0 {
		frac = float64(won) / float64(pairs)
	}
	if bound <= 0 {
		return verdictInfo, frac
	}
	if pairs > 0 && frac >= 0.9 && math.Abs(b.q2-a.q2) > a.q3-a.q1 {
		return verdictBetter, frac
	}
	if a.spread() > bound || b.spread() > bound {
		allBetter := true
		for _, x := range b.vals {
			for _, y := range a.vals {
				allBetter = allBetter && better(x, y)
			}
		}
		if allBetter {
			return verdictNoWorse, frac
		}
		return verdictUnresolved, frac
	}
	worse := (b.q2 - a.q2) / math.Abs(a.q2)
	if !lowerBetter {
		worse = -worse
	}
	if worse > bound {
		return verdictWorse, frac
	}
	return verdictNoWorse, frac
}

// absoluteRules hold the regression rules BENCHMARK.json cannot express,
// whose bounds are shares of a nonzero median: the failure rate is
// normally zero and may not rise at all, and the decomposition's cost gap
// may grow by at most 0.05 percentage points. Both compare the means over
// each side's runs, so one run with failures counts.
var absoluteRules = map[string]float64{
	"failed_fraction": 0,
	"cost_gap_pct":    0.05,
}

// absoluteVerdict applies an absolute rule: the change is worse when its
// mean exceeds the parent's by more than slack.
func absoluteVerdict(a, b []float64, slack float64) string {
	if mean(b)-mean(a) > slack {
		return verdictWorse
	}
	return verdictNoWorse
}

// errFingerprint flags runs of the same code and seed whose outputs
// differ: the repository promises bit-identical results per seed.
var errFingerprint = errors.New("fingerprints differ between runs of the same side")

func runCompare(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [--bench BENCHMARK.json] parent.jsonl change.jsonl")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	a, err := loadRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	var mismatch bool
	for _, side := range []struct {
		name string
		runs []*runRecord
	}{{fs.Arg(0), a}, {fs.Arg(1), b}} {
		for _, msg := range fingerprintMismatches(side.runs) {
			fmt.Fprintf(w, "FINGERPRINT %s: %s\n", side.name, msg)
			mismatch = true
		}
	}
	rules := make(map[string]specMetric)
	for _, m := range spec.PerLayer {
		rules[m.Name] = m
	}
	for _, m := range spec.EndToEnd {
		rules[m.Name] = m
	}
	fmt.Fprintf(w, "%-20s %-5s %-34s %12s %12s %12s %12s %6s %6s  %s\n",
		"workload", "trace", "metric", "a_median", "a_iqr", "b_median", "b_iqr", "pairs", "won", "verdict")
	for _, key := range groupKeys(a, b) {
		ra, rb := filterRuns(a, key), filterRuns(b, key)
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-20s %-5t only one side has runs\n", key.workload, key.trace)
			continue
		}
		worst := verdictNoWorse
		for _, name := range metricNames(ra, rb, spec) {
			va, vb := values(ra, name), values(rb, name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rule, ok := rules[name]
			lower := !ok || rule.Better != "higher"
			sa, sb := newSide(va), newSide(vb)
			v, frac := verdict(sa, sb, lower, rule.Bound)
			if slack, ok := absoluteRules[name]; ok {
				v = absoluteVerdict(va, vb, slack)
			}
			if v == verdictWorse || (v == verdictUnresolved && worst != verdictWorse) {
				worst = v
			}
			fmt.Fprintf(w, "%-20s %-5t %-34s %12.6g %12.6g %12.6g %12.6g %6d %6.2f  %s\n",
				key.workload, key.trace, name, sa.q2, sa.q3-sa.q1, sb.q2, sb.q3-sb.q1,
				min(len(va), len(vb)), frac, v)
		}
		fmt.Fprintf(w, "%-20s %-5t => %s\n", key.workload, key.trace, worst)
	}
	if mismatch {
		return errFingerprint
	}
	return nil
}

type groupKey struct {
	workload string
	trace    bool
}

func groupKeys(sides ...[]*runRecord) []groupKey {
	seen := make(map[groupKey]bool)
	var keys []groupKey
	for _, runs := range sides {
		for _, r := range runs {
			k := groupKey{r.Workload, r.Trace}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	return keys
}

func filterRuns(runs []*runRecord, k groupKey) []*runRecord {
	var out []*runRecord
	for _, r := range runs {
		if r.Workload == k.workload && r.Trace == k.trace {
			out = append(out, r)
		}
	}
	return out
}

// metricNames lists the catalogue metrics first, in BENCHMARK.json order,
// then every other metric the runs recorded.
func metricNames(a, b []*runRecord, spec *benchSpec) []string {
	seen := make(map[string]bool)
	var names []string
	for _, list := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			seen[m.Name] = true
			names = append(names, m.Name)
		}
	}
	var extra []string
	for _, runs := range [][]*runRecord{a, b} {
		for _, r := range runs {
			for n := range r.Metrics {
				if !seen[n] {
					seen[n] = true
					extra = append(extra, n)
				}
			}
		}
	}
	sort.Strings(extra)
	return append(names, extra...)
}

// values returns the metric's value in each run, in run order.
func values(runs []*runRecord, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// fingerprintMismatches compares the fingerprints of runs that share a
// workload and seed.
func fingerprintMismatches(runs []*runRecord) []string {
	type key struct {
		workload string
		seed     int64
	}
	first := make(map[key]*runRecord)
	var out []string
	for _, r := range runs {
		k := key{r.Workload, r.Seed}
		ref, ok := first[k]
		if !ok {
			first[k] = r
			continue
		}
		for name, fp := range r.Fingerprint {
			if other, ok := ref.Fingerprint[name]; ok && other != fp {
				out = append(out, fmt.Sprintf("%s seed %d %s: %s vs %s", r.Workload, r.Seed, name, other, fp))
			}
		}
	}
	sort.Strings(out)
	return out
}
