// Command experiments regenerates every table and figure of the paper's
// evaluation (§VII, Figs. 3–10) plus the ablations listed in DESIGN.md,
// printing each as an aligned text table together with its qualitative
// shape check.
//
// Usage:
//
//	experiments [-fig name] [-seed n] [-players n]
//	            [-cpuprofile cpu.out] [-memprofile mem.out]
//	            [-telemetry-addr :8080]
//
// With no -fig, all experiments run in order. -telemetry-addr serves the
// shared ops mux (/metrics, /statusz, /debug/vars, /debug/pprof/*) while
// the suite runs — handy for profiling the long experiments live.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"dspp"
	"dspp/internal/experiments"
	"dspp/internal/profiling"
)

type experiment struct {
	name string
	run  func(seed int64, players int) (*experiments.Table, error, error)
}

func registry() []experiment {
	return []experiment{
		{"fig3", func(int64, int) (*experiments.Table, error, error) {
			r := experiments.Fig3Prices()
			return r.Table, r.Check(), nil
		}},
		{"fig4", func(seed int64, _ int) (*experiments.Table, error, error) {
			r, err := experiments.Fig4DemandTracking(seed)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"fig5", func(int64, int) (*experiments.Table, error, error) {
			r, err := experiments.Fig5PriceShifting()
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"fig6", func(seed int64, _ int) (*experiments.Table, error, error) {
			r, err := experiments.Fig6HorizonSmoothing(seed)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"fig7", func(seed int64, players int) (*experiments.Table, error, error) {
			r, err := experiments.Fig7GameConvergence(seed, players)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"fig8", func(seed int64, _ int) (*experiments.Table, error, error) {
			r, err := experiments.Fig8HorizonVsIterations(seed)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"fig9", func(seed int64, _ int) (*experiments.Table, error, error) {
			r, err := experiments.Fig9HorizonVsCost(seed)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.CheckFig9(), nil
		}},
		{"fig10", func(int64, int) (*experiments.Table, error, error) {
			r, err := experiments.Fig10ConstantHorizon()
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.CheckFig10(), nil
		}},
		{"support", func(int64, int) (*experiments.Table, error, error) {
			r, err := experiments.SupportPruning()
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"pos", func(seed int64, players int) (*experiments.Table, error, error) {
			r, err := experiments.PriceOfStability(seed, min(players, 6))
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"ablation-reconfig", func(seed int64, _ int) (*experiments.Table, error, error) {
			r, err := experiments.AblationReconfigWeight(seed)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"ablation-baselines", func(seed int64, _ int) (*experiments.Table, error, error) {
			r, err := experiments.AblationBaselines(seed)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"ablation-percentile", func(int64, int) (*experiments.Table, error, error) {
			r, err := experiments.AblationPercentileSLA()
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"ablation-reservation", func(seed int64, _ int) (*experiments.Table, error, error) {
			r, err := experiments.AblationReservationRatio(seed)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"ablation-stepsize", func(seed int64, _ int) (*experiments.Table, error, error) {
			r, err := experiments.AblationGameStepSize(seed)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"ablation-ffd", func(seed int64, _ int) (*experiments.Table, error, error) {
			r, err := experiments.AblationFFDExactness(seed, 200)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"validate-mm1", func(seed int64, _ int) (*experiments.Table, error, error) {
			r, err := experiments.ValidateMM1Model(seed)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"ablation-soft", func(seed int64, _ int) (*experiments.Table, error, error) {
			r, err := experiments.AblationSoftController(seed)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"game-receding", func(seed int64, _ int) (*experiments.Table, error, error) {
			r, err := experiments.GameRecedingHorizon(seed)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"extension-pooling", func(int64, int) (*experiments.Table, error, error) {
			r, err := experiments.ExtensionPooling()
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"validate-endtoend", func(seed int64, _ int) (*experiments.Table, error, error) {
			r, err := experiments.EndToEndLatency(seed)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"ablation-integer", func(seed int64, _ int) (*experiments.Table, error, error) {
			r, err := experiments.AblationIntegerRounding(seed)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"poa", func(seed int64, _ int) (*experiments.Table, error, error) {
			r, err := experiments.PriceOfAnarchy(seed, 6)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"predictors", func(seed int64, _ int) (*experiments.Table, error, error) {
			r, err := experiments.PredictorShootout(seed)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"extension-spot", func(seed int64, _ int) (*experiments.Table, error, error) {
			r, err := experiments.ExtensionSpotPricing(seed)
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
		{"robust-outage", func(seed int64, _ int) (*experiments.Table, error, error) {
			r, err := experiments.OutageRecovery(seed)
			if err != nil {
				return nil, nil, err
			}
			fmt.Println(r.Fault.DegradationSummary())
			return r.Table, r.Check(), nil
		}},
		{"continental-scaling", func(int64, int) (*experiments.Table, error, error) {
			r, err := experiments.ContinentalScaling(context.Background(), experiments.ContinentalScalingCases(false))
			if err != nil {
				return nil, nil, err
			}
			return r.Table, r.Check(), nil
		}},
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fig := fs.String("fig", "", "experiment to run (default: all); one of fig3..fig10, support, pos, ablation-*, validate-mm1")
	seed := fs.Int64("seed", 2012, "random seed")
	players := fs.Int("players", 10, "max players for the game experiments")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	telemetryAddr := fs.String("telemetry-addr", "", "serve /metrics, /statusz, /debug/vars and /debug/pprof on this address while the suite runs")
	benchFull := fs.Bool("bench-full", false, "continental-scaling: add the n500, n1000 and n2000 solves and the n1000 time bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "experiments:", perr)
		}
	}()
	if *telemetryAddr != "" {
		addr, stopServe, err := dspp.ServeTelemetry(*telemetryAddr, dspp.NewTelemetry())
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "experiments: telemetry on http://%s/debug/pprof/\n", addr)
		defer func() {
			if serr := stopServe(); serr != nil {
				fmt.Fprintln(os.Stderr, "experiments:", serr)
			}
		}()
	}
	// The full scaling curve takes its size from -bench-full, so it runs
	// outside the fixed registry signature.
	if *benchFull {
		if !strings.EqualFold(*fig, "continental-scaling") {
			return fmt.Errorf("-bench-full requires -fig continental-scaling")
		}
		r, err := experiments.ContinentalScaling(context.Background(), experiments.ContinentalScalingCases(true))
		if err != nil {
			return fmt.Errorf("continental-scaling: %w", err)
		}
		fmt.Println(r.Table.Render())
		shapeErr := r.Check()
		if shapeErr != nil {
			fmt.Printf("shape check [continental-scaling]: FAIL: %v\n\n", shapeErr)
		} else {
			fmt.Printf("shape check [continental-scaling]: PASS\n\n")
		}
		return shapeErr
	}
	ran := 0
	for _, e := range registry() {
		if *fig != "" && !strings.EqualFold(*fig, e.name) {
			continue
		}
		table, shapeErr, err := e.run(*seed, *players)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Println(table.Render())
		if shapeErr != nil {
			fmt.Printf("shape check [%s]: FAIL: %v\n\n", e.name, shapeErr)
		} else {
			fmt.Printf("shape check [%s]: PASS\n\n", e.name)
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", *fig)
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
