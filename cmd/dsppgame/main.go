// Command dsppgame runs the multi-provider resource-competition game
// (paper §VI): N service providers share data-center capacity, the
// infrastructure provider reallocates per-provider quotas by Algorithm 2,
// and the outcome is compared against the social optimum (Theorem 1
// predicts a price of stability of 1).
//
// Usage:
//
//	dsppgame [-players 4] [-bottleneck 150] [-window 3]
//	         [-alpha 100] [-epsilon 0.05] [-seed 11] [-timeout 30s]
//	         [-telemetry-addr :8080] [-trace-out game.jsonl]
//
// With -timeout, the best-response loop runs under a deadline: on expiry
// it stops within one round and reports the last (non-equilibrium)
// iterate instead of hanging on slow scenarios.
//
// With -telemetry-addr, a live ops endpoint serves /metrics, /statusz,
// /debug/vars and /debug/pprof/* during the run; -trace-out streams the
// best_response/round/qp_solve span hierarchy as JSONL (replayable with
// `dsppsim trace-summary`).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"dspp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dsppgame:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("dsppgame", flag.ContinueOnError)
	players := fs.Int("players", 4, "number of competing providers")
	bottleneck := fs.Float64("bottleneck", 150, "capacity of the cheap bottleneck DC (capacity units)")
	window := fs.Int("window", 3, "shared prediction window W")
	alpha := fs.Float64("alpha", 100, "quota step size")
	epsilon := fs.Float64("epsilon", 0.01, "relative stability threshold (paper uses 0.05; tighter tracks the optimum closer)")
	seed := fs.Int64("seed", 11, "random seed")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for Algorithm 2 (0 = none)")
	telemetryAddr := fs.String("telemetry-addr", "", "serve /metrics, /statusz, /debug/vars and /debug/pprof on this address during the run")
	traceOut := fs.String("trace-out", "", "stream the span trace as JSONL to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var tel *dspp.Telemetry
	if *telemetryAddr != "" || *traceOut != "" {
		var opts []dspp.TelemetryOption
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return fmt.Errorf("create trace: %w", err)
			}
			defer f.Close()
			opts = append(opts, dspp.WithTraceWriter(f))
		}
		tel = dspp.NewTelemetry(opts...)
		if *telemetryAddr != "" {
			addr, stopServe, err := dspp.ServeTelemetry(*telemetryAddr, tel)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "dsppgame: telemetry on http://%s/metrics\n", addr)
			defer func() {
				if serr := stopServe(); serr != nil {
					fmt.Fprintln(os.Stderr, "dsppgame:", serr)
				}
			}()
		}
	}
	if *players < 1 || *players > 64 {
		return fmt.Errorf("players %d out of range 1-64", *players)
	}
	if *window < 1 {
		return fmt.Errorf("window %d", *window)
	}

	rng := rand.New(rand.NewSource(*seed))
	providers := make([]*dspp.Provider, *players)
	for i := range providers {
		providers[i] = randomProvider(rng, fmt.Sprintf("sp%d", i+1), *window)
	}
	scenario := &dspp.GameScenario{
		Capacity:  []float64{*bottleneck, math.Inf(1)},
		Providers: providers,
	}

	swp, err := dspp.SolveSocialWelfare(scenario)
	if err != nil {
		return fmt.Errorf("social welfare: %w", err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ne, err := dspp.BestResponseCtx(ctx, scenario, dspp.BestResponseConfig{
		Alpha:     *alpha,
		Epsilon:   *epsilon,
		StepDecay: 0.3,
		Telemetry: tel,
	})
	if err != nil {
		// A deadline expiry with a partial iterate is reported, not fatal.
		if ne == nil || !errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("best response: %w", err)
		}
		fmt.Fprintf(out, "timeout after %d rounds; reporting the last iterate\n\n", ne.Iterations)
	}
	ratio, err := dspp.EfficiencyRatio(ne, swp)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "dsppgame: %d providers, bottleneck %.0f units, W=%d\n\n",
		*players, *bottleneck, *window)
	fmt.Fprintf(out, "%-8s %10s %12s %12s %14s\n",
		"provider", "size", "NE cost", "SWP cost", "quota@cheap DC")
	for i, p := range scenario.Providers {
		fmt.Fprintf(out, "%-8s %10.0f %12.4f %12.4f %14.2f\n",
			p.Name, p.ServerSize,
			ne.Outcomes[i].Cost, swp.Outcomes[i].Cost, ne.Quotas[i][0])
	}
	fmt.Fprintf(out, "\nAlgorithm 2: %d iterations, converged=%v\n", ne.Iterations, ne.Converged)
	fmt.Fprintf(out, "total cost: NE %.4f vs social optimum %.4f (ratio %.4f)\n",
		ne.Total, swp.Total, ratio)
	fmt.Fprintf(out, "Theorem 1 predicts ratio -> 1 for the best equilibrium\n")
	if tel != nil {
		fmt.Fprintf(out, "\ntelemetry:\n%s", dspp.MetricsTable(tel))
	}
	return nil
}

// randomProvider mirrors the paper's §VII-B randomized per-SP parameters
// (μ, D, s, c, d̄) on a two-DC topology: cheap bottleneck plus expensive
// overflow.
func randomProvider(rng *rand.Rand, name string, window int) *dspp.Provider {
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
	return &dspp.Provider{
		Name:            name,
		SLA:             [][]float64{{a0}, {a1}},
		ReconfigWeights: []float64{c, c},
		ServerSize:      size,
		Demand:          demand,
		Prices:          prices,
	}
}
