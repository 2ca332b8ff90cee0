// Command benchmark is the placement stack's benchmark: four workloads
// driven through the public functions of the daemon, game, decomp, core
// and predict packages, each checked against its instance.
//
// One workload (the form the BENCHMARK.json command uses):
//
//	go run . --workload game-fig7 --seed 2012 --seconds 15 --trace 0 [--out runs.jsonl]
//
// Every workload, each in its own child process:
//
//	go run . --seed 2012 [--seconds 15] [--trace 1] [--out runs.jsonl]
//
// Compare two sets of runs against the bounds in BENCHMARK.json:
//
//	go run . compare [--bench ../BENCHMARK.json] a.jsonl b.jsonl
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics; the lines above it are the
// readable table, with sample counts and output fingerprints. A failed
// correctness check exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"time"

	"dspp/internal/telemetry"
)

// env is one pass of a workload: its settings, its reference clock and
// its record. A traced pass also carries the in-memory span stream.
type env struct {
	seed    int64
	seconds int
	// toy shrinks every workload to a smoke-test size.
	toy   bool
	sink  *traceSink
	rec   *runRecord
	clock *refClock
	// build is the workload's set-up, kept by setup for timeSetup.
	build func() error
}

func newEnv(workload string, seed int64, seconds int, traced, toy bool) *env {
	e := &env{
		seed: seed, seconds: seconds, toy: toy,
		rec:   newRecord(workload, seed, seconds, traced),
		clock: newRefClock(),
	}
	if traced {
		e.sink = &traceSink{}
	}
	return e
}

func (e *env) traced() bool { return e.sink != nil }

// hub returns a telemetry hub for a workload that runs with one: in a
// traced pass it streams spans into the pass's sink.
func (e *env) hub() *telemetry.Hub {
	if e.traced() {
		return telemetry.New(telemetry.WithTraceWriter(e.sink))
	}
	return telemetry.New()
}

// traceHub returns a hub in a traced pass and nil otherwise, for
// workloads whose command runs without one.
func (e *env) traceHub() *telemetry.Hub {
	if e.traced() {
		return e.hub()
	}
	return nil
}

// tracer returns h's tracer in a traced pass, for the harness's own spans,
// and nil otherwise.
func (e *env) tracer(h *telemetry.Hub) *telemetry.Tracer {
	if e.traced() {
		return h.Tracer()
	}
	return nil
}

// drain returns the spans written since the last drain; nil untraced.
func (e *env) drain() ([]telemetry.TraceEvent, error) {
	if !e.traced() {
		return nil, nil
	}
	return e.sink.drain()
}

// Set-up repetition: after the run, timeSetup rebuilds the set-up in
// batches of at least setupBatch, each batch between two set-up reference
// samples, until it has built at least minSetupReps times over at least
// minSetupTime. setup_s is the median over batches of the time per build,
// so a microsecond set-up rests on thousands of builds and every batch is
// timed against the machine's speed at that moment. minSetupTime spans
// more than one of the machine's fast and slow spells, so the median does
// not rest on the one a short measurement happens to land in.
const (
	minSetupReps = 5
	minSetupTime = 2 * time.Second
	setupBatch   = 10 * time.Millisecond
)

// setup builds the objects the run uses, once, from a collected heap, and
// keeps build for timeSetup. The repeated builds come after the run and
// after its peak memory is read: their garbage would otherwise set the
// peak of a workload whose run holds less.
func (e *env) setup(build func() error) error {
	runtime.GC()
	e.build = build
	if err := build(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	return nil
}

// timeSetup runs the set-up's build repeatedly and records the median
// time per build, in reference seconds, as setup_s.
func (e *env) timeSetup() error {
	runtime.GC()
	var perBuild []float64
	reps := 0
	var spent time.Duration
	for reps < minSetupReps || spent < minSetupTime {
		n := 0
		var wall, cpu time.Duration
		k, err := e.clock.setupAround(func() error {
			sw := startStopwatch()
			for n == 0 || time.Since(sw.wall) < setupBatch {
				if err := e.build(); err != nil {
					return err
				}
				n++
			}
			wall, cpu = sw.elapsed()
			return nil
		})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		perBuild = append(perBuild, cpu.Seconds()/float64(n)*k)
		reps += n
		spent += wall
		if e.toy {
			break
		}
	}
	e.rec.set("setup_s", median(perBuild), "s", reps)
	return nil
}

// setTimes records an operation set's end-to-end times: the median of the
// per-operation times opsMS, its tail, and the total workS of the run's
// fixed work. Prefix "wall." records the unscaled wall times beside the
// reference ones.
func (e *env) setTimes(prefix string, opsMS []float64, tailMS, workS float64, ops int) {
	r := e.rec
	r.set(prefix+"p50_ms", percentile(opsMS, 50), "ms", len(opsMS))
	r.set(prefix+"tail_ms", tailMS, "ms", len(opsMS))
	r.set(prefix+"work_s", workS, "s", ops)
}

// tail returns the p-th percentile of xs, warning on standard error when
// fewer than minBeyond samples lie beyond it: at the default run length
// every reported tail has them, a shorter --seconds may not.
func (e *env) tail(xs []float64, p float64) float64 {
	if _, err := tail(xs, p); err != nil && !e.toy {
		fmt.Fprintf(os.Stderr, "benchmark: %s: warning: %v\n", e.rec.Workload, err)
	}
	return percentile(xs, p)
}

// workload is one named input set; BENCHMARK.json and README.md give the
// reason each exists.
type workload struct {
	name string
	run  func(*env) error
}

var workloads = []workload{
	{"daemon-paper", runDaemonPaper},
	{"game-fig7", runGameFig7},
	{"continental-diurnal", runContinentalDiurnal},
	{"continental-static", runContinentalStatic},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = runCompare(os.Args[2:], os.Stdout)
	} else {
		err = run(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errChecks reports a run whose correctness checks failed.
var errChecks = errors.New("correctness checks failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: every workload, each in a child process)")
	seed := fs.Int64("seed", paperSeed, "workload seed")
	seconds := fs.Int("seconds", 15, "run length: each workload sizes its fixed work from it")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := fs.String("out", "", "append each run's full record as a JSON line to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("seconds %d < 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("trace %d, want 0 or 1", *trace)
	}
	if *name == "" {
		return runAll(*seed, *seconds, *trace, *out, stdout)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	rec, err := runWorkload(w, *seed, *seconds, *trace == 1, false)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	names := endToEnd
	if rec.Trace {
		names = perLayer
	}
	sum := rec.summarize(names)
	rec.printTable(stdout)
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return errChecks
	}
	return nil
}

// runWorkload runs one workload in this process, records its peak
// resident memory, and then times its set-up. A traced run first runs the
// same operations untraced: the traced median over the untraced one is
// the cost of tracing, and the two passes must produce identical outputs.
//
// Every workload runs on one scheduler thread. On the 2-vCPU machines
// the bounds were set on, the second vCPU added anywhere from nothing to
// a full core as neighbours came and went (the reference kernel on two
// workers took 1.0–2.0× its one-worker time), so two-thread runs
// measured that lottery; on one thread the reference tracks the
// operation, and the daemon's goroutines hand off without waking a
// second thread.
func runWorkload(w workload, seed int64, seconds int, traced, toy bool) (*runRecord, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := newEnv(w.name, seed, seconds, false, toy)
	defer e.clock.close()
	if err := w.run(e); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	e.rec.set("peak_rss_mb", rss, "MB", 1)
	if err := e.timeSetup(); err != nil {
		return nil, err
	}
	if traced {
		base := e.rec
		e = newEnv(w.name, seed, seconds, true, toy)
		defer e.clock.close()
		if err := w.run(e); err != nil {
			return nil, err
		}
		e.rec.absorb(base)
		if p0, p1 := base.Metrics["p50_ms"], e.rec.Metrics["p50_ms"]; p0.Value > 0 {
			e.rec.set("bench.trace_overhead_pct", 100*(p1.Value/p0.Value-1), "%", p1.N)
		}
	}
	r := e.rec
	if r.Attempted > 0 {
		r.set("failed_fraction", float64(r.Failed)/float64(r.Attempted), "ratio", r.Attempted)
	}
	r.set("ref.unit_ms", e.clock.unitMS(), "ms", len(e.clock.samples))
	r.set("ref.setup_unit_ms", e.clock.setupUnitMS(), "ms", len(e.clock.setupSamples))
	return r, nil
}

// runAll runs every workload in a child process of its own, so peak
// memory and garbage-collector state belong to that workload alone.
func runAll(seed int64, seconds, trace int, out string, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		args := []string{"--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace)}
		if out != "" {
			args = append(args, "--out", out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s (%v)", w.name, err))
		}
	}
	if len(failed) > 0 {
		sort.Strings(failed)
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}
