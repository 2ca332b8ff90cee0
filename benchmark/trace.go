package main

import (
	"bytes"
	"sort"
	"sync"

	"dspp/internal/telemetry"
)

// traceSink keeps the JSONL span stream of a traced run in memory; the
// harness drains and parses it between operations, when no span is open,
// so writing spans costs the program a buffer append and nothing else.
type traceSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *traceSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// drain parses and discards everything written so far.
func (s *traceSink) drain() ([]telemetry.TraceEvent, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	events, err := telemetry.ReadTrace(&s.buf)
	s.buf.Reset()
	return events, err
}

// Harness span names: the benchmark opens these around its own calls into
// the program, so per-layer numbers need no span inside the program.
const (
	spanOp   = "bench.op"
	spanMono = "bench.mono"
)

// interval is a span's [start, end) on the tracer clock, in µs.
type interval struct{ start, end int64 }

func spanInterval(e *telemetry.TraceEvent) interval {
	return interval{e.StartUS, e.StartUS + e.DurUS}
}

// byName groups events by span name, in emission order.
func byName(events []telemetry.TraceEvent) map[string][]*telemetry.TraceEvent {
	out := make(map[string][]*telemetry.TraceEvent)
	for i := range events {
		e := &events[i]
		out[e.Span] = append(out[e.Span], e)
	}
	return out
}

func intervals(evs []*telemetry.TraceEvent) []interval {
	out := make([]interval, len(evs))
	for i, e := range evs {
		out[i] = spanInterval(e)
	}
	return out
}

// covered returns, for each outer interval, how many µs of it at least
// one inner interval covers. Overlapping inner intervals (solves running
// in parallel) count once: the result is the outer span's time spent
// waiting on the inner layer, and outer − covered is its self time.
func covered(outer, inner []interval) []int64 {
	merged := mergeIntervals(inner)
	out := make([]int64, len(outer))
	for i, o := range outer {
		// First merged interval that may end after o starts.
		j := sort.Search(len(merged), func(k int) bool { return merged[k].end > o.start })
		for ; j < len(merged) && merged[j].start < o.end; j++ {
			lo, hi := merged[j].start, merged[j].end
			if lo < o.start {
				lo = o.start
			}
			if hi > o.end {
				hi = o.end
			}
			if hi > lo {
				out[i] += hi - lo
			}
		}
	}
	return out
}

// mergeIntervals returns the union of xs as sorted disjoint intervals.
func mergeIntervals(xs []interval) []interval {
	s := append([]interval(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var out []interval
	for _, x := range s {
		if n := len(out); n > 0 && x.start <= out[n-1].end {
			if x.end > out[n-1].end {
				out[n-1].end = x.end
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// durations returns the span durations in the given unit (µs per unit).
func durations(evs []*telemetry.TraceEvent, usPerUnit float64) []float64 {
	out := make([]float64, len(evs))
	for i, e := range evs {
		out[i] = float64(e.DurUS) / usPerUnit
	}
	return out
}

// opLayers accumulates the per-op split of a traced phase: the part of
// each harness span (bench.op unless span names another) covered by QP
// solves, the rest, and the QP solve durations themselves.
type opLayers struct {
	span         string
	qpMS, selfMS []float64
	solveUS      []float64
}

// add folds one drained batch in.
func (a *opLayers) add(events []telemetry.TraceEvent) map[string][]*telemetry.TraceEvent {
	g := byName(events)
	span := a.span
	if span == "" {
		span = spanOp
	}
	ops := intervals(g[span])
	cov := covered(ops, intervals(g[telemetry.SpanQPSolve]))
	for i, o := range ops {
		wall := float64(o.end - o.start)
		a.qpMS = append(a.qpMS, float64(cov[i])/1e3)
		a.selfMS = append(a.selfMS, (wall-float64(cov[i]))/1e3)
	}
	for _, e := range g[telemetry.SpanQPSolve] {
		a.solveUS = append(a.solveUS, float64(e.DurUS))
	}
	return g
}

// record writes the per-layer times every workload has.
func (a *opLayers) record(r *runRecord) {
	r.set("qp.solve_us_p50", percentile(a.solveUS, 50), "us", len(a.solveUS))
	// Means, not medians: the two split the mean op wall exactly, so
	// they say where the time went even when most ops never solve.
	r.set("op.qp_ms_mean", mean(a.qpMS), "ms", len(a.qpMS))
	r.set("op.self_ms_mean", mean(a.selfMS), "ms", len(a.selfMS))
}

// counterSnap reads the QP and linalg counters of a hub, so a phase's
// work is the difference of two snapshots. A nil hub reads zero.
type counterSnap struct {
	solves, iters, warm, factors, reused, rankk, gameRounds float64
}

func snapCounters(h *telemetry.Hub) counterSnap {
	if h == nil {
		return counterSnap{}
	}
	reg := h.Registry()
	v := func(name string) float64 { return reg.Counter(name).Value() }
	return counterSnap{
		solves:     v(telemetry.MetricQPSolves),
		iters:      v(telemetry.MetricQPIterations),
		warm:       v(telemetry.MetricQPWarmStarts),
		factors:    v(telemetry.MetricQPFactorizations),
		reused:     v(telemetry.MetricQPFactorReused),
		rankk:      v(telemetry.MetricQPRankKUpdates),
		gameRounds: v(telemetry.MetricGameRounds),
	}
}

func (s counterSnap) sub(o counterSnap) counterSnap {
	return counterSnap{
		solves: s.solves - o.solves, iters: s.iters - o.iters, warm: s.warm - o.warm,
		factors: s.factors - o.factors, reused: s.reused - o.reused, rankk: s.rankk - o.rankk,
		gameRounds: s.gameRounds - o.gameRounds,
	}
}

// recordQP writes the solver and factorization counts of a phase of ops.
func (s counterSnap) recordQP(r *runRecord, ops int) {
	n := float64(ops)
	r.set("qp.solves_per_op", s.solves/n, "count", ops)
	r.set("linalg.rankk_updates_per_op", s.rankk/n, "count", ops)
	if s.solves > 0 {
		r.set("qp.iterations_per_solve", s.iters/s.solves, "count", int(s.solves))
		r.set("qp.warm_start_fraction", s.warm/s.solves, "ratio", int(s.solves))
		r.set("linalg.factorizations_per_solve", s.factors/s.solves, "count", int(s.solves))
	}
	if s.reused+s.factors > 0 {
		r.set("linalg.factor_reuse_ratio", s.reused/(s.reused+s.factors), "ratio", int(s.solves))
	}
}
