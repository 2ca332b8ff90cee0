package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"dspp/internal/core"
	"dspp/internal/decomp"
	"dspp/internal/qp"
	"dspp/internal/telemetry"
)

// Continental scenarios. Their topology and demand are fixed by the
// workload, not drawn from --seed: the coordination round count is
// chaotic in the input (a 0.1% demand perturbation moves the rounds per
// period by ±15% and a different topology seed moves the period time
// tenfold), so seeded inputs would measure the draw, not the code.
const (
	continentalHorizon = 2
	continentalShard   = 30
	continentalTopo    = 42
	diurnalAmplitude   = 0.3
)

type continentalSize struct{ locations, dcs int }

// Both continental workloads run n120 / 12 DCs. At n240 a monolithic
// cold solve takes 5–9 s and its time moves with the memory traffic of
// other tenants, which the reference kernel does not track (its spread
// over ten runs was 0.22 in wall time and 0.28 in reference time); at
// n120 a run holds a dozen solves and enough periods for a p90.
var (
	benchSize = continentalSize{120, 12}
	toySize   = continentalSize{60, 6}
)

func continentalScenario(sz continentalSize) (*decomp.Scenario, error) {
	return decomp.NewScenario(decomp.ScenarioConfig{
		Locations: sz.locations, DCSites: sz.dcs, Seed: continentalTopo, Horizon: continentalHorizon,
	})
}

// shippedDecomp is the decomposition as dsppsim -continental and dsppd
// -continental run it: incremental coordination with rank-k quota
// re-solves and cross-period carry.
func shippedDecomp(hub *telemetry.Hub) decomp.Options {
	return decomp.Options{MaxShardSize: continentalShard, Telemetry: hub, RankK: true, PeriodCarryTol: 1e-3}
}

// diurnalTrace is dsppsim's continental demand: each location's steady
// scenario demand swung by a sinusoid phased by its longitude.
func diurnalTrace(scn *decomp.Scenario, steps int) [][]float64 {
	out := make([][]float64, steps)
	for k := range out {
		out[k] = make([]float64, len(scn.Demand[0]))
		for v := range out[k] {
			phase := scn.Net.Access[v].City.Lon/15 + 6
			f := (1 - diurnalAmplitude) + diurnalAmplitude*math.Sin(2*math.Pi*(float64(k)+phase)/24)
			out[k][v] = scn.Demand[0][v] * f
		}
	}
	return out
}

// periodLoop steps a decomposed controller through MPC periods with
// perfect forecasts, checking every plan against the instance.
type periodLoop struct {
	inst   *core.Instance
	ctrl   *decomp.Controller
	hub    *telemetry.Hub // attribution records go to its sink; nil for none
	demand [][]float64    // period k plans for demand[k+1:k+1+W] and is served demand[k+1]
	prices [][]float64    // flat: one row per horizon step
	prev   core.State

	wall   []time.Duration
	cpu    []time.Duration // process CPU time of each period
	attrib []time.Duration
	cost   float64
	failed int
	counts decompCounts
	absorb int // first period of the trailing zero-solve run, -1 if none
}

// decompCounts sums the coordination work of the periods stepped.
type decompCounts struct{ rounds, solves, slots, fast, held int }

func (c decompCounts) sub(o decompCounts) decompCounts {
	return decompCounts{c.rounds - o.rounds, c.solves - o.solves, c.slots - o.slots, c.fast - o.fast, c.held - o.held}
}

// record writes the counts per op; slots are rounds × shards.
func (c decompCounts) record(r *runRecord, ops int) {
	n := float64(ops)
	r.set("decomp.rounds_per_op", float64(c.rounds)/n, "count", ops)
	r.set("decomp.shard_solves_per_op", float64(c.solves)/n, "count", ops)
	r.set("decomp.fast_resolves_per_op", float64(c.fast)/n, "count", ops)
	r.set("decomp.held_shards_per_op", float64(c.held)/n, "count", ops)
	if c.slots > 0 {
		r.set("decomp.solves_per_shard_round", float64(c.solves)/float64(c.slots), "ratio", c.slots)
	}
}

func newPeriodLoop(inst *core.Instance, ctrl *decomp.Controller, hub *telemetry.Hub, demand, prices [][]float64) *periodLoop {
	return &periodLoop{inst: inst, ctrl: ctrl, hub: hub, demand: demand, prices: prices, prev: ctrl.State(), absorb: -1}
}

// step runs period k: the controller step, the realized cost, and the
// attribution record sim emits for every period. tr, when set, wraps the
// period in a bench.op span.
func (pl *periodLoop) step(r *runRecord, k int, tr *telemetry.Tracer) error {
	window := pl.demand[k+1 : k+1+continentalHorizon]
	prices := pl.prices // the scenario's flat prices, one row per step
	realP := prices[0]
	sp := tr.Start(spanOp, 0)
	ctx := telemetry.ContextWithSpan(context.Background(), sp)
	sw := startStopwatch()
	applied, state, err := pl.ctrl.StepCtx(ctx, window, prices)
	if err != nil {
		sp.End()
		return fmt.Errorf("period %d: %w", k, err)
	}
	cost, err := pl.inst.PeriodCost(state, applied, realP)
	if err != nil {
		sp.End()
		return fmt.Errorf("period %d cost: %w", k, err)
	}
	attrStart := time.Now()
	deg := pl.ctrl.LastDegradation()
	if sink := pl.hub.Attribution(); sink != nil {
		a, aerr := core.NewAttribution(pl.inst, k+1, state, applied, pl.prev, realP, cost, deg,
			attrStart.Sub(sw.wall), pl.ctrl.LastExplain())
		if aerr != nil {
			sp.End()
			return fmt.Errorf("period %d attribution: %w", k, aerr)
		}
		sink.Record(a)
	}
	wall, cpu := sw.elapsed()
	sp.End()
	pl.wall = append(pl.wall, wall)
	pl.cpu = append(pl.cpu, cpu)
	pl.attrib = append(pl.attrib, wall-attrStart.Sub(sw.wall))
	pl.prev = state
	pl.cost += cost.Total()

	if deg.Degraded() {
		pl.failed++
	}
	if err := checkPlan(pl.inst, state, window[0]); err != nil {
		pl.failed++
		r.problem(fmt.Errorf("period %d: %w", k, err))
	}
	solves := 0
	if sol := pl.ctrl.LastSolution(); sol != nil {
		pl.counts.rounds += sol.Rounds
		pl.counts.solves += sol.ShardSolves
		pl.counts.slots += sol.ShardSolves + sol.SkippedShards
		pl.counts.fast += sol.FastResolves
		pl.counts.held += sol.HeldShards
		solves = sol.ShardSolves
	}
	if solves == 0 {
		if pl.absorb < 0 {
			pl.absorb = k
		}
	} else {
		pl.absorb = -1
	}
	return nil
}

// run steps periods from..to-1, each between two reference samples, and
// returns their times in reference ms. After each period it hands the
// period's spans to lay, or drops them for a nil lay.
func (pl *periodLoop) run(e *env, from, to int, tr *telemetry.Tracer, lay *decompLayers) ([]float64, error) {
	var out []float64
	for k := from; k < to; k++ {
		f, err := e.clock.around(func() error { return pl.step(e.rec, k, tr) })
		if err != nil {
			return nil, err
		}
		out = append(out, float64(pl.cpu[len(pl.cpu)-1])/float64(time.Millisecond)*f)
		events, err := e.drain()
		if err != nil {
			return nil, err
		}
		if lay != nil {
			lay.add(events)
		}
	}
	return out, nil
}

// decompLayers accumulates the spans of traced decomposed periods: each
// period split into QP time and the rest, and per coordination round its
// wall, the part outside its critical shard solves, and the straggler
// ratio of its barrier.
type decompLayers struct {
	ops                                             opLayers
	coordMS, overheadMS, shardMS, criticalMS, strag []float64
	coordSum, overheadSum                           float64
}

func (l *decompLayers) add(events []telemetry.TraceEvent) {
	if len(events) == 0 {
		return
	}
	g := l.ops.add(events)
	for _, p := range telemetry.CriticalPaths(events) {
		l.coordMS = append(l.coordMS, float64(p.DurUS)/1e3)
		l.overheadMS = append(l.overheadMS, float64(p.DurUS-p.CriticalUS)/1e3)
		l.coordSum += float64(p.DurUS)
		l.overheadSum += float64(p.DurUS - p.CriticalUS)
		for _, st := range p.Steps {
			l.criticalMS = append(l.criticalMS, float64(st.DurUS)/1e3)
		}
	}
	l.shardMS = append(l.shardMS, durations(g[telemetry.SpanShardSolve], 1e3)...)
	l.strag = append(l.strag, stragglerRatios(g[telemetry.SpanShardSolve])...)
}

// record writes the coordination overhead and straggler metrics.
func (l *decompLayers) record(r *runRecord) {
	if l.coordSum > 0 {
		r.set("decomp.coordination_overhead_pct", 100*l.overheadSum/l.coordSum, "%", len(l.coordMS))
	}
	r.set("decomp.straggler_ratio_p50", percentile(l.strag, 50), "ratio", len(l.strag))
}

func diurnalPeriods(seconds int, toy bool) int {
	if toy {
		return 6
	}
	return 1 + int(math.Round(9.6*float64(seconds)))
}

// runContinentalDiurnal steps the shipped decomposed controller through
// diurnal periods closed loop; period 0 is the cold start and stays out
// of the period percentiles and the per-layer numbers.
func runContinentalDiurnal(e *env) error {
	r := e.rec
	sz := benchSize
	if e.toy {
		sz = toySize
	}
	periods := diurnalPeriods(e.seconds, e.toy)
	hub := e.hub()
	var scn *decomp.Scenario
	var ctrl *decomp.Controller
	err := e.setup(func() error {
		var err error
		if scn, err = continentalScenario(sz); err != nil {
			return err
		}
		ctrl, err = decomp.NewController(scn.Inst, continentalHorizon, shippedDecomp(hub))
		return err
	})
	if err != nil {
		return err
	}
	demand := diurnalTrace(scn, periods+continentalHorizon+1)
	pl := newPeriodLoop(scn.Inst, ctrl, hub, demand, scn.Prices)
	tr := e.tracer(hub)
	mem := startMem()
	times, err := pl.run(e, 0, 1, tr, nil) // period 0's spans are left out
	if err != nil {
		return err
	}
	before, coldCounts := snapCounters(hub), pl.counts
	var lay decompLayers
	steady, err := pl.run(e, 1, periods, tr, &lay)
	if err != nil {
		return err
	}
	times = append(times, steady...)
	mem.perOp(r, periods)
	r.Attempted, r.Failed = periods, pl.failed
	e.setTimes("", steady, e.tail(steady, 90), sum(times)/1e3, periods)
	rawMS := ms(pl.wall)
	e.setTimes("wall.", rawMS[1:], percentile(rawMS[1:], 90), sum(rawMS)/1e3, periods)
	r.set("period_p50_ms", percentile(steady, 50), "ms", len(steady))
	r.set("period_p90_ms", percentile(steady, 90), "ms", len(steady))
	r.fingerprint("diurnal.total_cost", pl.cost)
	c := pl.counts
	r.fingerprint("diurnal.coordination", float64(c.rounds), float64(c.solves), float64(c.fast))
	if !e.traced() {
		return nil
	}
	ops := periods - 1
	lay.ops.record(r)
	snapCounters(hub).sub(before).recordQP(r, ops)
	pl.counts.sub(coldCounts).record(r, ops)
	lay.record(r)
	var attr, wall time.Duration
	for i := 1; i < len(pl.wall); i++ {
		attr += pl.attrib[i]
		wall += pl.wall[i]
	}
	r.set("core.attribution_share_pct", 100*attr.Seconds()/wall.Seconds(), "%", ops)
	r.set("decomp.coordinate_ms_p50", percentile(lay.coordMS, 50), "ms", len(lay.coordMS))
	r.set("decomp.coordination_overhead_ms_p50", percentile(lay.overheadMS, 50), "ms", len(lay.overheadMS))
	r.set("decomp.shard_solve_ms_p50", percentile(lay.shardMS, 50), "ms", len(lay.shardMS))
	r.set("decomp.critical_shard_ms_p50", percentile(lay.criticalMS, 50), "ms", len(lay.criticalMS))
	r.set("telemetry.attribution_us_p50", percentile(scaled(ms(pl.attrib[1:]), 1e3), 50), "us", ops)
	zeroLayers(r)
	return nil
}

// stragglerRatios returns, per coordination round, the slowest shard
// solve over the mean solve of that round: how long the round's barrier
// waits on its straggler.
func stragglerRatios(solves []*telemetry.TraceEvent) []float64 {
	type key struct {
		parent uint64
		round  int
	}
	type agg struct {
		sum, max float64
		n        int
	}
	rounds := make(map[key]*agg)
	var order []key
	for _, s := range solves {
		round, _ := s.Num("round")
		k := key{s.Parent, int(round)}
		a := rounds[k]
		if a == nil {
			a = &agg{}
			rounds[k] = a
			order = append(order, k)
		}
		d := float64(s.DurUS)
		a.sum += d
		a.n++
		a.max = math.Max(a.max, d)
	}
	var out []float64
	for _, k := range order {
		if a := rounds[k]; a.sum > 0 {
			out = append(out, a.max/(a.sum/float64(a.n)))
		}
	}
	return out
}

type staticParams struct{ cold, mono, quiet int }

// staticCounts sizes the static workload: at 15 s, 105 cold decomposed
// solves (a p90 with ten beyond it), 7 cold monolithic solves and 120
// quiet periods.
func staticCounts(seconds int, toy bool) staticParams {
	if toy {
		return staticParams{cold: 2, mono: 1, quiet: 5}
	}
	return staticParams{cold: 7 * seconds, mono: max(1, seconds/2), quiet: 8 * seconds}
}

// monoCold solves the scenario's horizon once, monolithically and cold,
// on a freshly built instance, so the dense Q/G build, the session and
// the solve are all paid as a restarted controller would pay them.
func monoCold(sz continentalSize, hooks *telemetry.Hub, tr *telemetry.Tracer) (*core.Plan, *decomp.Scenario, time.Duration, time.Duration, error) {
	scn, err := continentalScenario(sz)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var opts qp.Options
	if hooks != nil {
		opts.Hooks = hooks.QPHooks()
	}
	sp := tr.Start(spanMono, 0)
	sw := startStopwatch()
	ses, err := scn.Inst.NewHorizonSession(continentalHorizon, opts)
	if err != nil {
		sp.End()
		return nil, nil, 0, 0, err
	}
	plan, err := ses.SolveCtx(telemetry.ContextWithSpan(context.Background(), sp), core.HorizonInput{
		X0: scn.Inst.NewState(), Demand: scn.Demand, Prices: scn.Prices,
	})
	wall, cpu := sw.elapsed()
	sp.End()
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("monolithic solve: %w", err)
	}
	return plan, scn, wall, cpu, nil
}

// decompCold runs one cold coordinated solve on a fresh solver, as the
// scaling records measure it.
func decompCold(scn *decomp.Scenario, part *decomp.Partition, hub *telemetry.Hub, tr *telemetry.Tracer) (*decomp.Solution, time.Duration, time.Duration, error) {
	solver, err := decomp.NewSolver(scn.Inst, continentalHorizon, part, decomp.Options{
		MaxShardSize: continentalShard, NoFallback: true, Telemetry: hub,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	sp := tr.Start(spanOp, 0)
	sw := startStopwatch()
	sol, err := solver.SolveCtx(telemetry.ContextWithSpan(context.Background(), sp), scn.Inst.NewState(), scn.Demand, scn.Prices)
	wall, cpu := sw.elapsed()
	sp.End()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("decomposed solve: %w", err)
	}
	return sol, wall, cpu, nil
}

func checkHorizonPlan(inst *core.Instance, x []core.State, demand [][]float64) error {
	for t := range x {
		if err := checkPlan(inst, x[t], demand[t]); err != nil {
			return fmt.Errorf("step %d: %w", t, err)
		}
	}
	return nil
}

// runContinentalStatic measures the cold solves of one continental
// instance under flat demand, decomposed and monolithic, and steps the
// shipped controller through quiet periods in which nothing changes. The
// op is the cold decomposed solve; the monolithic solves, too slow for a
// run to hold enough of them for a tail, count in work_s and mono_cold_s.
func runContinentalStatic(e *env) error {
	r := e.rec
	sz := benchSize
	if e.toy {
		sz = toySize
	}
	p := staticCounts(e.seconds, e.toy)
	hub := e.traceHub()
	tr := e.tracer(hub)
	var scn *decomp.Scenario
	var part *decomp.Partition
	var ctrl *decomp.Controller
	var partMS []float64
	err := e.setup(func() error {
		var err error
		if scn, err = continentalScenario(sz); err != nil {
			return err
		}
		start := time.Now()
		if part, err = decomp.NewPartition(scn.Inst, continentalShard); err != nil {
			return err
		}
		partMS = append(partMS, float64(time.Since(start))/float64(time.Millisecond))
		r.set("decomp.partition_ms", median(partMS), "ms", len(partMS))
		ctrl, err = decomp.NewController(scn.Inst, continentalHorizon, shippedDecomp(hub))
		return err
	})
	if err != nil {
		return err
	}
	// The phases run small to large, each after a collection: the
	// monolithic solves leave tens of MB of garbage that would otherwise
	// be collected during the millisecond phases.
	runtime.GC()
	pl := newPeriodLoop(scn.Inst, ctrl, nil, steadyTrace(scn, p.quiet), scn.Prices)
	quiet, err := pl.run(e, 0, p.quiet, tr, nil)
	if err != nil {
		return err
	}
	work, rawWork := sum(quiet)/1e3, sum(ms(pl.wall))/1e3
	r.Attempted += p.quiet
	r.Failed += pl.failed

	var coldMS, rawColdMS []float64
	var decompObj float64
	var coldCounts decompCounts
	var coldLay decompLayers
	runtime.GC()
	before := snapCounters(hub)
	mem := startMem()
	for i := 0; i < p.cold; i++ {
		var sol *decomp.Solution
		var wall, cpu time.Duration
		f, err := e.clock.around(func() error {
			var err error
			sol, wall, cpu, err = decompCold(scn, part, hub, tr)
			return err
		})
		if err != nil {
			return err
		}
		rawColdMS = append(rawColdMS, float64(wall)/float64(time.Millisecond))
		coldMS = append(coldMS, float64(cpu)/float64(time.Millisecond)*f)
		decompObj = sol.Objective
		coldCounts.rounds += sol.Rounds
		coldCounts.solves += sol.ShardSolves
		coldCounts.slots += sol.ShardSolves + sol.SkippedShards
		coldCounts.fast += sol.FastResolves
		coldCounts.held += sol.HeldShards
		r.Attempted++
		if !sol.Converged {
			r.Failed++
		}
		if err := checkPlan(scn.Inst, sol.State, scn.Demand[0]); err != nil {
			r.Failed++
			r.problem(fmt.Errorf("decomposed plan: %w", err))
		}
		events, err := e.drain()
		if err != nil {
			return err
		}
		coldLay.add(events)
	}
	mem.perOp(r, p.cold)
	coldWork := snapCounters(hub).sub(before)
	work += sum(coldMS) / 1e3
	rawWork += sum(rawColdMS) / 1e3

	var monoS []float64
	var monoObj, monoIters float64
	var monoLay opLayers
	monoLay.span = spanMono
	before = snapCounters(hub)
	for i := 0; i < p.mono; i++ {
		// Each monolithic solve starts from a collected heap, as a
		// restarted controller would: left to the collector, the tens of
		// MB the previous solve dropped overlap the next one's by chance,
		// and the peak memory of a run with them.
		runtime.GC()
		var plan *core.Plan
		var mscn *decomp.Scenario
		var wall, cpu time.Duration
		var heap0, heap1 runtime.MemStats
		if e.traced() && i == 0 {
			runtime.ReadMemStats(&heap0)
		}
		f, err := e.clock.around(func() error {
			var err error
			plan, mscn, wall, cpu, err = monoCold(sz, hub, tr)
			return err
		})
		if err != nil {
			return err
		}
		if e.traced() && i == 0 {
			runtime.ReadMemStats(&heap1)
			r.set("runtime.mono_heap_mb", float64(heap1.HeapAlloc-min(heap0.HeapAlloc, heap1.HeapAlloc))/(1<<20), "MB", 1)
		}
		work += cpu.Seconds() * f
		rawWork += wall.Seconds()
		monoS = append(monoS, cpu.Seconds()*f)
		monoObj, monoIters = plan.Objective, float64(plan.QPIterations)
		r.Attempted++
		if err := checkHorizonPlan(mscn.Inst, plan.X, mscn.Demand); err != nil {
			r.Failed++
			r.problem(fmt.Errorf("monolithic plan: %w", err))
		}
		events, err := e.drain()
		if err != nil {
			return err
		}
		monoLay.add(events)
	}
	monoWork := snapCounters(hub).sub(before)
	gap, err := costGapPct(decompObj, monoObj)
	r.problem(err)
	ops := p.cold + p.mono + p.quiet
	e.setTimes("", coldMS, e.tail(coldMS, 90), work, ops)
	e.setTimes("wall.", rawColdMS, percentile(rawColdMS, 90), rawWork, ops)
	r.set("decomp_cold_s", median(coldMS)/1e3, "s", len(coldMS))
	r.set("mono_cold_s", median(monoS), "s", len(monoS))
	r.set("quiet_period_p50_ms", percentile(quiet, 50), "ms", len(quiet))
	r.set("quiet_period_p90_ms", percentile(quiet, 90), "ms", len(quiet))
	r.set("cost_gap_pct", gap, "%", 1)
	r.set("decomp.periods_to_absorb", float64(pl.absorb), "count", p.quiet)
	r.set("decomp.quiet_solves_per_period", float64(pl.counts.solves)/float64(p.quiet), "count", p.quiet)
	r.check(e.toy || pl.absorb >= 0, "quiet periods never settled to zero shard solves in %d periods", p.quiet)
	r.fingerprint("static.mono_objective", monoObj)
	r.fingerprint("static.decomp_objective", decompObj)
	r.fingerprint("static.quiet_cost", pl.cost)
	if !e.traced() {
		return nil
	}
	// The generic per-layer metrics describe the op, the cold decomposed
	// solve; the mono_* ones the monolithic solve it is compared with.
	coldLay.ops.record(r)
	coldWork.recordQP(r, p.cold)
	coldCounts.record(r, p.cold)
	coldLay.record(r)
	r.set("core.mono_self_s", median(monoLay.selfMS)/1e3, "s", len(monoLay.selfMS))
	r.set("qp.mono_solve_s", median(monoLay.qpMS)/1e3, "s", len(monoLay.qpMS))
	r.set("qp.mono_iterations", monoIters, "count", 1)
	r.set("linalg.mono_factorizations", monoWork.factors/float64(p.mono), "count", p.mono)
	if part := ctrl.Partition(); part != nil {
		r.set("decomp.quiet_held_fraction", float64(pl.counts.held)/float64(p.quiet*len(part.Shards)), "ratio", p.quiet)
	}
	zeroLayers(r)
	return nil
}

// steadyTrace repeats the scenario's flat demand for every period.
func steadyTrace(scn *decomp.Scenario, periods int) [][]float64 {
	out := make([][]float64, periods+continentalHorizon+1)
	for k := range out {
		out[k] = scn.Demand[0]
	}
	return out
}
