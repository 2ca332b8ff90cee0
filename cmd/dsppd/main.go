// Command dsppd is the long-running placement daemon: it ingests
// streaming demand observations — one JSON object per stdin line, or
// POSTed to /observe — and every observation triggers one control
// period: re-forecast (with online multiplicative corrections for
// forecaster bias and M/M/1 delay-model error), re-solve the horizon QP
// under the per-period wall-clock budget via the deadline-bounded
// anytime ladder, apply the first control, report one JSON line on
// stdout, and checkpoint.
//
// Usage:
//
//	dsppd [-dcs 4] [-metros 8] [-horizon 5] [-budget 50ms] [-watchdog 200ms]
//	      [-predictor persistence|seasonal|ar|holtwinters] [-history 96] [-mu 150]
//	      [-checkpoint dsppd.ckpt] [-addr :8080] [-stall 0]
//	dsppd -continental [-locations 240] [-dcsites 24] [-continental-seed 41]
//	      [-shard-size 60]
//
// Observations look like
//
//	{"demand":[120,80,60,...],"prices":[0.11,0.09,...],"delay":[0.012,...]}
//
// with one demand (and optional delay) entry per metro and one price per
// data center. The instance is the paper's geo-distributed setup: DCs at
// San Jose/Houston/Atlanta/Chicago, the most populous non-DC metros as
// demand sites, a 30 ms CDN-class SLA.
//
// With -continental the daemon instead serves a generated continental
// topology (same construction as dsppsim -continental) through the
// decomposed controller: sharded region QPs whose shared DC capacity is
// re-divided by a dual-price quota loop, every round re-solving every
// shard. Its cost model bypasses to the monolithic solve when
// coordination would cost more. A coordinating controller adds the
// period's rounds and shard_solves to its report lines. Checkpoints are
// state-only on this path: a resumed run re-coordinates from the
// restored state rather than resuming bit-identically.
//
// SIGTERM or SIGINT shuts down cleanly: the last completed period's
// checkpoint is already on disk, and restarting with the same -checkpoint
// resumes with bit-identical plans. The checkpoint is two files,
// <path> and <path>.1, each holding a checksummed binary record; a crash
// mid-write tears at most one, and the restart resumes from the other.
// Deleting <path> resets the daemon. -addr serves POST /observe, /healthz,
// /metrics (Prometheus text format) and /statusz (per-period cost
// attribution with capacity dual prices, as JSON). -stall injects
// artificial solver latency per period — the quickest way to watch the
// anytime ladder and the watchdog work.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dspp"
	"dspp/internal/daemon"
	"dspp/internal/predict"
	"dspp/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dsppd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dsppd", flag.ContinueOnError)
	numDCs := fs.Int("dcs", 4, "number of data centers (1-4: San Jose, Houston, Atlanta, Chicago)")
	numMetros := fs.Int("metros", 8, "number of demand metros")
	horizon := fs.Int("horizon", 5, "MPC prediction horizon W")
	budget := fs.Duration("budget", 50*time.Millisecond, "per-period wall-clock budget (0 = unbudgeted)")
	watchdog := fs.Duration("watchdog", 0, "wedged-solve limit (default 4x budget)")
	predictor := fs.String("predictor", "persistence", "demand predictor: persistence|seasonal|ar|holtwinters")
	history := fs.Int("history", 96, "demand/price history retained for forecasting")
	mu := fs.Float64("mu", 150, "per-server service rate for the M/M/1 delay correction")
	checkpoint := fs.String("checkpoint", "", "checkpoint path: written each period alternately to <path> and <path>.1, the newer valid one restored on start; delete <path> to reset")
	addr := fs.String("addr", "", "serve POST /observe, /healthz and /metrics on this address")
	stall := fs.Duration("stall", 0, "inject artificial solver latency per period (demo/testing)")
	continental := fs.Bool("continental", false, "serve a generated continental topology through the decomposed controller")
	locations := fs.Int("locations", 240, "continental mode: number of access locations")
	dcsites := fs.Int("dcsites", 24, "continental mode: number of data-center sites")
	continentalSeed := fs.Int64("continental-seed", 41, "continental mode: topology seed")
	shardSize := fs.Int("shard-size", 60, "continental mode: max locations per shard (0 = connected components only)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		inst      *dspp.Instance
		decompOpt *dspp.DecompOptions
		numLoc    int
	)
	if *continental {
		scn, err := dspp.NewContinentalScenario(dspp.ContinentalScenarioConfig{
			Locations: *locations, DCSites: *dcsites, Seed: *continentalSeed,
		})
		if err != nil {
			return err
		}
		inst = scn.Inst
		numLoc = *locations
		*numDCs = *dcsites
		decompOpt = &dspp.DecompOptions{MaxShardSize: *shardSize}
		// The continental scenario's SLA is built at its own service rate;
		// follow it for the delay correction unless -mu was given explicitly.
		muSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "mu" {
				muSet = true
			}
		})
		if !muSet {
			*mu = 1000
		}
	} else {
		var metros []dspp.City
		var err error
		inst, metros, err = buildInstance(*numDCs, *numMetros)
		if err != nil {
			return err
		}
		numLoc = len(metros)
	}
	var pred predict.Predictor
	switch strings.ToLower(*predictor) {
	case "persistence":
		pred = dspp.PersistencePredictor{}
	case "seasonal":
		pred = dspp.SeasonalNaivePredictor{Season: 24}
	case "ar":
		pred = dspp.ARPredictor{P: 2}
	case "holtwinters":
		pred = dspp.HoltWintersPredictor{Season: 24}
	default:
		return fmt.Errorf("unknown predictor %q", *predictor)
	}

	tel := dspp.NewTelemetry()
	d, err := daemon.New(daemon.Config{
		Instance:       inst,
		Horizon:        *horizon,
		Budget:         *budget,
		Watchdog:       *watchdog,
		Predictor:      pred,
		History:        *history,
		Mu:             *mu,
		CheckpointPath: *checkpoint,
		Telemetry:      tel,
		Addr:           *addr,
		Out:            os.Stdout,
		Decomp:         decompOpt,
	})
	if err != nil {
		return err
	}
	if *stall > 0 {
		d.SetStall(*stall)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	resumed := ""
	if d.Restored() {
		resumed = fmt.Sprintf(", resumed at period %d", d.Period())
	}
	if *continental {
		fmt.Fprintf(os.Stderr, "dsppd: continental, %d DCs, %d locations, W=%d, budget=%v, decomposed (shard size %d)%s\n",
			*numDCs, numLoc, *horizon, *budget, *shardSize, resumed)
	} else {
		fmt.Fprintf(os.Stderr, "dsppd: %d DCs, %d metros, W=%d, budget=%v%s\n",
			*numDCs, numLoc, *horizon, *budget, resumed)
	}
	fmt.Fprintf(os.Stderr, "dsppd: expecting {\"demand\":[%d],\"prices\":[%d],\"delay\":[%d]?} per line\n",
		numLoc, *numDCs, numLoc)
	if *addr != "" {
		// The daemon binds inside Run; report the address once it is up.
		go func() {
			for d.Addr() == "" {
				time.Sleep(10 * time.Millisecond)
			}
			fmt.Fprintf(os.Stderr, "dsppd: serving http://%s/observe /healthz /metrics /statusz\n", d.Addr())
		}()
	}

	err = d.Run(ctx, os.Stdin)
	fmt.Fprintf(os.Stderr, "dsppd: stopped after %d periods (%d watchdog restarts)\n",
		d.Period(), d.WatchdogTrips())
	// Footer: period wall-time and budget-utilization economics, read back
	// from the daemon's own histograms so the numbers match /metrics.
	snap := tel.Registry().Snapshot()
	if n := snap[telemetry.MetricDaemonPeriodSeconds+"_count"]; n > 0 {
		line := fmt.Sprintf("dsppd: period wall mean %.1fms over %.0f periods",
			snap[telemetry.MetricDaemonPeriodSeconds+"_sum"]/n*1e3, n)
		if bn := snap[telemetry.MetricBudgetUtilization+"_count"]; bn > 0 {
			line += fmt.Sprintf(", budget utilization mean %.0f%%",
				snap[telemetry.MetricBudgetUtilization+"_sum"]/bn*100)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	if n := snap[telemetry.MetricDaemonCheckpointSeconds+"_count"]; n > 0 {
		fmt.Fprintf(os.Stderr, "dsppd: checkpoint mean %.1fus over %.0f saves, last record %.0f bytes\n",
			snap[telemetry.MetricDaemonCheckpointSeconds+"_sum"]/n*1e6, n, snap[telemetry.MetricDaemonCheckpointBytes])
	}
	return err
}

// buildInstance assembles the paper's geo-distributed instance: DC sites
// priced by their regional electricity curves and the most populous
// non-DC metros as demand locations (the same construction dsppsim uses).
func buildInstance(numDCs, numMetros int) (*dspp.Instance, []dspp.City, error) {
	if numDCs < 1 || numDCs > 4 {
		return nil, nil, fmt.Errorf("dcs %d out of range 1-4", numDCs)
	}
	if numMetros < 1 || numMetros > 20 {
		return nil, nil, fmt.Errorf("metros %d out of range 1-20", numMetros)
	}
	dcNames := []string{"San Jose", "Houston", "Atlanta", "Chicago"}
	var dcCities []dspp.City
	for i := 0; i < numDCs; i++ {
		city, ok := dspp.CityByName(dcNames[i])
		if !ok {
			return nil, nil, fmt.Errorf("missing city %q", dcNames[i])
		}
		dcCities = append(dcCities, city)
	}
	var metros []dspp.City
	for _, c := range dspp.USCities() {
		hostsDC := false
		for _, d := range dcCities {
			if d.Name == c.Name {
				hostsDC = true
				break
			}
		}
		if !hostsDC {
			metros = append(metros, c)
		}
		if len(metros) == numMetros {
			break
		}
	}
	net, err := dspp.BuildGeoNetwork(dcCities, metros, 0.002)
	if err != nil {
		return nil, nil, err
	}
	sla, err := dspp.SLAMatrix(net.LatencyMatrix(), dspp.SLAConfig{Mu: 150, MaxDelay: 0.03})
	if err != nil {
		return nil, nil, err
	}
	weights := make([]float64, numDCs)
	caps := make([]float64, numDCs)
	for i := range weights {
		weights[i] = 2e-5
		caps[i] = 2000
	}
	inst, err := dspp.NewInstance(dspp.InstanceConfig{
		SLA:             sla,
		ReconfigWeights: weights,
		Capacities:      caps,
	})
	if err != nil {
		return nil, nil, err
	}
	return inst, metros, nil
}
