package main

import (
	"fmt"
	"math"
	"os"

	"dspp"
)

// continentalRun bundles the continental-mode parameters.
type continentalRun struct {
	locations, dcsites int
	periods, horizon   int
	seed               int64
	diurnalAmp         float64
}

// runContinental simulates a generated continental-scale topology. The
// steady scenario demand is modulated by a per-location diurnal factor
// of amplitude cfg.diurnalAmp (phase-shifted by longitude, peak = the
// scenario's sizing point, so the instance stays feasible at every hour;
// amplitude 0 is the flat steady state); prices keep the scenario's
// per-DC draw. The policy is the MPC controller.
func runContinental(out *os.File, tel *dspp.Telemetry, cfg continentalRun) error {
	scn, err := dspp.NewContinentalScenario(dspp.ContinentalScenarioConfig{
		Locations: cfg.locations,
		DCSites:   cfg.dcsites,
		Seed:      cfg.seed,
		Horizon:   cfg.horizon,
	})
	if err != nil {
		return err
	}
	inst := scn.Inst

	steps := cfg.periods + cfg.horizon + 1
	demandTrace := make([][]float64, steps)
	priceTrace := make([][]float64, steps)
	amp := cfg.diurnalAmp
	for k := range demandTrace {
		demandTrace[k] = make([]float64, cfg.locations)
		for v := range demandTrace[k] {
			phase := scn.Net.Access[v].City.Lon/15 + 6
			f := (1 - amp) + amp*math.Sin(2*math.Pi*(float64(k)+phase)/24)
			demandTrace[k][v] = scn.Demand[0][v] * f
		}
		priceTrace[k] = append([]float64(nil), scn.Prices[0]...)
	}

	ctrl, err := dspp.NewController(inst, cfg.horizon, dspp.WithTelemetry(tel))
	if err != nil {
		return err
	}
	policy := dspp.NewMPCPolicy(ctrl)

	res, err := dspp.Simulate(dspp.SimConfig{
		Instance:    inst,
		Policy:      policy,
		DemandTrace: demandTrace,
		PriceTrace:  priceTrace,
		Periods:     cfg.periods,
		Horizon:     cfg.horizon,
		Telemetry:   tel,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "dsppsim: continental, %d DCs, %d locations, %d periods, W=%d, policy=%s\n",
		cfg.dcsites, cfg.locations, cfg.periods, cfg.horizon, policy.Name())
	sup := inst.Support()
	fmt.Fprintf(out, "support: %d/%d (DC, location) pairs SLA-feasible (%.0f%% pruned), %d–%d DCs per location\n",
		sup.FeasiblePairs, sup.TotalPairs, 100*sup.PrunedFraction,
		sup.MinDCsPerLocation, sup.MaxDCsPerLocation)
	fmt.Fprintln(out)

	// Compact per-period table: with hundreds of DCs the per-DC columns of
	// the paper-scale table are unreadable, so report totals.
	fmt.Fprintf(out, "%-6s %14s %14s %8s %10s %6s %s\n",
		"hour", "demand", "servers", "DCs-on", "cost", "SLA", "mode")
	for _, s := range res.Steps {
		var totalDemand float64
		for _, d := range s.Demand {
			totalDemand += d
		}
		var servers float64
		var active int
		for _, x := range s.ServersByDC {
			servers += x
			if x > 1e-9 {
				active++
			}
		}
		slaMark := "ok"
		if !s.SLAMet {
			slaMark = "MISS"
		}
		fmt.Fprintf(out, "%-6d %14.0f %14.1f %8d %10.2f %6s %s\n",
			s.Period, totalDemand, servers, active, s.Cost.Total(), slaMark, s.Degradation.Mode)
	}
	fmt.Fprintf(out, "\ntotal cost %.2f (resource %.2f, reconfig %.2f), SLA violations %d/%d\n",
		res.TotalCost, res.TotalResource, res.TotalReconfig, res.SLAViolations, len(res.Steps))
	fmt.Fprintln(out, res.DegradationSummary())
	if tel != nil {
		fmt.Fprintf(out, "\ntelemetry:\n%s", dspp.MetricsTable(tel))
	}
	return nil
}
