package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dspp/internal/experiments"
	"dspp/internal/game"
	"dspp/internal/parallel"
	"dspp/internal/telemetry"
)

// The Fig 7 grid as experiments.Fig7GameConvergence runs it: bottleneck
// capacities × player counts × seeded repetitions, window 3.
var fig7Capacities = []float64{100, 200, 300}

const (
	fig7Reps   = 3
	fig7Window = 3
)

type gameParams struct{ sweeps, players int }

func gameSize(seconds int, toy bool) gameParams {
	if toy {
		return gameParams{sweeps: 3, players: 3}
	}
	return gameParams{sweeps: 7 * seconds, players: 10}
}

// fig7Provider draws a provider with randomized (μ, D, s, c, d̄) exactly as
// the Fig 7 experiment does (§VII-B): one customer location, a cheap
// bottleneck DC and an expensive overflow DC. The experiment's generator
// is unexported, so the benchmark carries a copy; checkFig7 compares the
// resulting iteration counts with the experiment's own, so the copies
// cannot drift apart silently.
func fig7Provider(rng *rand.Rand, name string, window int) *game.Provider {
	mu := 150 + rng.Float64()*200
	dbar := 0.15 + rng.Float64()*0.2
	lat0 := 0.02 + rng.Float64()*0.03
	lat1 := 0.02 + rng.Float64()*0.03
	a0 := 1 / (mu - 1/(dbar-lat0))
	a1 := 1 / (mu - 1/(dbar-lat1))
	size := float64(int(1) << rng.Intn(3))
	c := 1e-5 + rng.Float64()*1e-4
	level := 2000 + rng.Float64()*6000
	demand := make([][]float64, window)
	prices := make([][]float64, window)
	for t := 0; t < window; t++ {
		demand[t] = []float64{level * (0.9 + 0.2*rng.Float64())}
		prices[t] = []float64{0.02, 0.12}
	}
	return &game.Provider{
		Name:            name,
		SLA:             [][]float64{{a0}, {a1}},
		ReconfigWeights: []float64{c, c},
		ServerSize:      size,
		Demand:          demand,
		Prices:          prices,
	}
}

// fig7BRConfig is the experiment's Algorithm 2 configuration.
func fig7BRConfig(hub *telemetry.Hub) game.BestResponseConfig {
	return game.BestResponseConfig{Alpha: 100, StepDecay: 0.3, Epsilon: 0.05, MaxIterations: 1000, Telemetry: hub}
}

// sweep is one Fig 7 sweep's games, generated fresh: providers cache
// their instances across rounds, so a scenario is solved once.
type sweep struct {
	players   int
	scenarios []*game.Scenario // [cell*fig7Reps + rep], cell = capacity*players + n-1
}

func newSweep(seed int64, players int) *sweep {
	s := &sweep{players: players}
	for ci := range fig7Capacities {
		for n := 1; n <= players; n++ {
			for rep := 0; rep < fig7Reps; rep++ {
				rng := rand.New(rand.NewSource(seed + int64(n)*101 + int64(rep)*977))
				providers := make([]*game.Provider, n)
				for i := range providers {
					providers[i] = fig7Provider(rng, fmt.Sprintf("sp%d", i+1), fig7Window)
				}
				s.scenarios = append(s.scenarios, &game.Scenario{
					Capacity:  []float64{fig7Capacities[ci], math.Inf(1)},
					Providers: providers,
				})
			}
		}
	}
	return s
}

// sweepResult is one solved sweep.
type sweepResult struct {
	wall, cpu time.Duration
	results   []*game.BestResponseResult
	errs      []error
}

// run solves every game of the sweep, one grid cell per parallel item as
// the experiment fans out.
func (s *sweep) run(ctx context.Context, hub *telemetry.Hub) *sweepResult {
	res := &sweepResult{
		results: make([]*game.BestResponseResult, len(s.scenarios)),
		errs:    make([]error, len(s.scenarios)),
	}
	cells := len(fig7Capacities) * s.players
	sw := startStopwatch()
	parallel.ForEach(cells, 0, func(cell int) error { //nolint:errcheck // errors are kept per game
		for rep := 0; rep < fig7Reps; rep++ {
			i := cell*fig7Reps + rep
			res.results[i], res.errs[i] = game.BestResponseCtx(ctx, s.scenarios[i], fig7BRConfig(hub))
		}
		return nil
	})
	res.wall, res.cpu = sw.elapsed()
	return res
}

// check counts the failed games (any error but ErrNotConverged), checks
// every outcome against its scenario, and returns the sweep's iteration
// matrix [capacity][players] and total cost.
func (s *sweep) check(r *runRecord, res *sweepResult) (iters [][]int, cost float64, failed, notConverged int) {
	iters = make([][]int, len(fig7Capacities))
	for ci := range iters {
		iters[ci] = make([]int, s.players)
	}
	for i, sc := range s.scenarios {
		cell := i / fig7Reps
		ci, n := cell/s.players, cell%s.players
		err, br := res.errs[i], res.results[i]
		if errors.Is(err, game.ErrNotConverged) {
			notConverged++
		} else if err != nil || br == nil {
			failed++
			continue
		}
		iters[ci][n] += br.Iterations
		cost += br.Total
		if cerr := checkGame(sc, br); cerr != nil {
			r.problem(fmt.Errorf("game %d: %w", i, cerr))
		}
	}
	for ci := range iters {
		for n := range iters[ci] {
			iters[ci][n] /= fig7Reps
		}
	}
	return iters, cost, failed, notConverged
}

// runGameFig7 runs Fig 7 sweeps closed loop: sweep j solves the grid
// drawn from seed+j, so a run's median is taken over many different
// sweeps while sweep 0 stays comparable with the experiment at the seed.
// In a traced pass each sweep is a bench.op span parenting its games.
func runGameFig7(e *env) error {
	p := gameSize(e.seconds, e.toy)
	r := e.rec
	ref, err := experiments.Fig7GameConvergence(e.seed, p.players)
	if err != nil {
		return err
	}
	var sw *sweep
	if err := e.setup(func() error { sw = newSweep(e.seed, p.players); return nil }); err != nil {
		return err
	}
	hub := e.traceHub()
	tr := e.tracer(hub)
	before := snapCounters(hub)
	var lay gameLayers
	times := make([]float64, p.sweeps) // reference ms
	rawMS := make([]float64, p.sweeps) // wall ms
	var work, rawWork float64
	notConverged := 0
	mem := startMem()
	for j := 0; j < p.sweeps; j++ {
		if j > 0 {
			sw = newSweep(e.seed+int64(j), p.players)
		}
		var res *sweepResult
		k, _ := e.clock.around(func() error {
			sp := tr.Start(spanOp, 0)
			res = sw.run(telemetry.ContextWithSpan(context.Background(), sp), hub)
			sp.End()
			return nil
		})
		rawMS[j] = float64(res.wall) / float64(time.Millisecond)
		times[j] = float64(res.cpu) / float64(time.Millisecond) * k
		work += res.cpu.Seconds() * k
		rawWork += res.wall.Seconds()
		iters, cost, failed, nc := sw.check(r, res)
		r.Attempted += len(sw.scenarios)
		r.Failed += failed
		notConverged += nc
		if j == 0 {
			r.problem(checkFig7(e.seed, iters, ref.Iterations))
			fig7Fingerprint(r, iters, cost)
		}
		events, err := e.drain()
		if err != nil {
			return err
		}
		lay.add(events)
	}
	mem.perOp(r, p.sweeps)
	e.setTimes("", times, e.tail(times, 90), work, p.sweeps)
	e.setTimes("wall.", rawMS, percentile(rawMS, 90), rawWork, p.sweeps)
	r.set("sweep_p50_ms", percentile(times, 50), "ms", len(times))
	r.set("sweep_p90_ms", percentile(times, 90), "ms", len(times))
	if e.traced() {
		work := snapCounters(hub).sub(before)
		lay.ops.record(r)
		work.recordQP(r, p.sweeps)
		r.set("game.rounds_per_op", work.gameRounds/float64(p.sweeps), "count", p.sweeps)
		r.set("game.not_converged_per_op", float64(notConverged)/float64(p.sweeps), "count", p.sweeps)
		r.set("game.round_self_us_p50", percentile(lay.roundSelfUS, 50), "us", len(lay.roundSelfUS))
		r.set("game.best_response_ms_p99", percentile(lay.brMS, 99), "ms", len(lay.brMS))
		zeroLayers(r)
	}
	return nil
}

func fig7Fingerprint(r *runRecord, iters [][]int, cost float64) {
	var flat []float64
	for _, row := range iters {
		for _, it := range row {
			flat = append(flat, float64(it))
		}
	}
	r.fingerprint("fig7.iterations", flat...)
	r.fingerprint("fig7.total_cost", cost)
	r.set("mean_iters_cap100", meanIters(iters[0]), "count", len(iters[0]))
}

// gameLayers accumulates the spans of a traced game run: each sweep split
// into QP time and the rest, each best-response round's time outside its
// QP solves, and each game's duration.
type gameLayers struct {
	ops         opLayers
	roundSelfUS []float64
	brMS        []float64
}

func (l *gameLayers) add(events []telemetry.TraceEvent) {
	g := l.ops.add(events)
	rounds := g[telemetry.SpanBestResponseRound]
	cov := covered(intervals(rounds), intervals(g[telemetry.SpanQPSolve]))
	for i, rd := range rounds {
		l.roundSelfUS = append(l.roundSelfUS, float64(rd.DurUS-cov[i]))
	}
	for _, br := range g[telemetry.SpanBestResponse] {
		l.brMS = append(l.brMS, float64(br.DurUS)/1e3)
	}
}
