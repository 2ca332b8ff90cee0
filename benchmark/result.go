package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one measured number. N is the sample count behind it (0 for
// a single measurement or a count).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// runRecord is everything one workload run produced: the summary counts, every metric with its sample count, the output fingerprints
// that must repeat bit for bit for a fixed seed, and the failed checks.
type runRecord struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     int               `json:"seconds"`
	Trace       bool              `json:"trace"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Fingerprint map[string]string `json:"fingerprint,omitempty"`
	Problems    []string          `json:"problems,omitempty"`
}

func newRecord(workload string, seed int64, seconds int, trace bool) *runRecord {
	return &runRecord{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Metrics:     make(map[string]metric),
		Fingerprint: make(map[string]string),
	}
}

// set records a metric. A NaN or infinite value (a statistic of no
// samples) is not a measurement and is left out; summarize reports a
// catalogue metric left out as a failed check.
func (r *runRecord) set(name string, value float64, unit string, n int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return
	}
	r.Metrics[name] = metric{Value: value, Unit: unit, N: n}
}

// check records a failed correctness check when ok is false.
func (r *runRecord) check(ok bool, format string, args ...any) {
	if !ok {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// problem records a failed correctness check from an error.
func (r *runRecord) problem(err error) {
	if err != nil {
		r.Problems = append(r.Problems, err.Error())
	}
}

// absorb adds an earlier pass of the same workload to r: its operations
// and failed checks count, and its fingerprints must equal r's.
func (r *runRecord) absorb(base *runRecord) {
	r.Attempted += base.Attempted
	r.Failed += base.Failed
	for _, p := range base.Problems {
		r.Problems = append(r.Problems, "untraced pass: "+p)
	}
	for name, fp := range base.Fingerprint {
		got, ok := r.Fingerprint[name]
		r.check(!ok || got == fp, "fingerprint %s differs between the untraced and the traced pass: %s vs %s", name, fp, got)
	}
}

// fingerprint records an output that must be bit-identical across runs of
// the same code and seed. Floats are written with every digit.
func (r *runRecord) fingerprint(name string, vals ...float64) {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	r.Fingerprint[name] = strings.Join(parts, ",")
}

// summary is the one-line result the benchmark prints last: exactly the
// keys correct, attempted, failed and metrics, each metric a value and a
// unit.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]summaryVal `json:"metrics"`
}

type summaryVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize keeps the metrics named in names (the end-to-end set for an
// untraced run, the per-layer set for a traced one). A catalogue metric
// the run did not produce is a failed check: the set printed must be
// complete.
func (r *runRecord) summarize(names []metricDef) summary {
	s := summary{Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]summaryVal)}
	for _, d := range names {
		m, ok := r.Metrics[d.Name]
		if !ok {
			r.check(false, "metric %s was not measured", d.Name)
			continue
		}
		s.Metrics[d.Name] = summaryVal{Value: m.Value, Unit: m.Unit}
	}
	r.Correct = len(r.Problems) == 0 && r.Attempted > 0
	s.Correct = r.Correct
	return s
}

// printTable writes the human-readable report of a run: every metric with
// unit and sample count, the fingerprints, and any failed check.
func (r *runRecord) printTable(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %t  attempted %d  failed %d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-40s %16.6g %-6s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	fps := make([]string, 0, len(r.Fingerprint))
	for n := range r.Fingerprint {
		fps = append(fps, n)
	}
	sort.Strings(fps)
	for _, n := range fps {
		fp := r.Fingerprint[n]
		if len(fp) > 80 {
			fp = fp[:77] + "..."
		}
		fmt.Fprintf(w, "  fingerprint %-28s %s\n", n, fp)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// appendRecord appends the record as one JSON line to path.
func appendRecord(path string, r *runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	data, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// memDelta measures the Go runtime's allocation and GC activity across a
// phase, for the runtime.* per-op metrics.
type memDelta struct{ start runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.start)
	return d
}

// perOp records allocated bytes, allocations and GC cycles per operation
// since startMem.
func (d *memDelta) perOp(r *runRecord, ops int) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if ops < 1 {
		ops = 1
	}
	n := float64(ops)
	r.set("runtime.alloc_bytes_per_op", float64(end.TotalAlloc-d.start.TotalAlloc)/n, "B", ops)
	r.set("runtime.allocs_per_op", float64(end.Mallocs-d.start.Mallocs)/n, "count", ops)
	r.set("runtime.gc_cycles_per_op", float64(end.NumGC-d.start.NumGC)/n, "count", ops)
}
