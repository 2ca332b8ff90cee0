// Command dsppsim runs a single-provider dynamic service placement
// simulation over a geo-distributed cloud and prints the per-period
// series: realized demand, per-DC allocation and prices, cost components
// and SLA outcome.
//
// The scenario follows the paper's setup: data centers in the four Fig. 3
// regions priced by their regional electricity curves, population-weighted
// diurnal demand from major US metros, an MPC controller with a chosen
// prediction horizon and predictor.
//
// Usage:
//
//	dsppsim [-dcs 4] [-metros 8] [-periods 48] [-horizon 5]
//	        [-predictor perfect|persistence|seasonal|ar] [-seed 7]
//	        [-fault outage:dc=1,start=10,end=20] [-fault noise:start=0,end=47,factor=0.3]
//	        [-cpuprofile cpu.out] [-memprofile mem.out]
//	        [-telemetry-addr :8080] [-serve-after 30s] [-trace-out run.jsonl]
//	dsppsim -continental [-locations 1000] [-dcsites 100]
//	        [-periods 24] [-horizon 2] [-seed 7] [-diurnal-amp 0.3]
//	dsppsim trace-summary run.jsonl
//
// With -continental the paper's four-DC setup is replaced by a generated
// continental-scale topology (see -locations/-dcsites), run by the same
// MPC controller: one block-angular horizon QP over the whole instance
// per period. The header reports the instance's support stats, and the
// per-period table collapses to totals — hundreds of per-DC columns would
// not be readable. -diurnal-amp scales the demand swing: 0 gives the
// flat steady state.
//
// Each -fault flag adds one event to the run's fault schedule
// (outage | shock | spike | surge | noise); the controller degrades
// gracefully instead of aborting, and the per-period table reports the
// degradation mode and shed demand.
//
// With -telemetry-addr, a live ops endpoint serves /metrics (Prometheus
// text format), /statusz (per-period cost attribution with capacity dual
// prices, as JSON), /debug/vars and /debug/pprof/* while the run executes
// (-serve-after keeps it up afterwards for scraping); -trace-out streams
// the span hierarchy as JSONL, which `dsppsim trace-summary` replays
// into the same aggregates offline.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"dspp"
	"dspp/internal/profiling"
	"dspp/internal/workload"
)

// faultSpecs collects repeated -fault flags.
type faultSpecs []string

func (f *faultSpecs) String() string { return strings.Join(*f, "; ") }

func (f *faultSpecs) Set(v string) error {
	if _, err := dspp.ParseFault(v); err != nil {
		return err
	}
	*f = append(*f, v)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dsppsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	if len(args) > 0 && args[0] == "trace-summary" {
		return traceSummary(args[1:], out)
	}
	fs := flag.NewFlagSet("dsppsim", flag.ContinueOnError)
	numDCs := fs.Int("dcs", 4, "number of data centers (1-4: San Jose, Houston, Atlanta, Chicago)")
	numMetros := fs.Int("metros", 8, "number of demand metros")
	periods := fs.Int("periods", 48, "control periods (hours)")
	horizon := fs.Int("horizon", 5, "MPC prediction horizon W")
	predictor := fs.String("predictor", "perfect", "demand predictor: perfect|persistence|seasonal|ar|holtwinters")
	seed := fs.Int64("seed", 7, "random seed")
	csvOut := fs.String("csv", "", "also write the per-period series to this CSV file")
	var faultFlags faultSpecs
	fs.Var(&faultFlags, "fault", "fault spec (repeatable), e.g. outage:dc=1,start=10,end=20")
	budget := fs.Duration("budget", 0, "per-period wall-clock budget enabling the anytime ladder (0 = off)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	telemetryAddr := fs.String("telemetry-addr", "", "serve /metrics, /statusz, /debug/vars and /debug/pprof on this address during the run")
	serveAfter := fs.Duration("serve-after", 0, "keep the telemetry endpoint up this long after the run (needs -telemetry-addr)")
	traceOut := fs.String("trace-out", "", "stream the span trace as JSONL to this file (replay with `dsppsim trace-summary`)")
	continental := fs.Bool("continental", false, "run a generated continental-scale topology instead of the paper's four-DC setup")
	locations := fs.Int("locations", 1000, "continental mode: number of access locations")
	dcsites := fs.Int("dcsites", 100, "continental mode: number of data-center sites")
	diurnalAmp := fs.Float64("diurnal-amp", 0.3, "continental mode: diurnal demand swing amplitude in [0,1] (0 = flat steady-state demand)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "dsppsim:", perr)
		}
	}()
	var tel *dspp.Telemetry
	var traceFile *os.File
	if *telemetryAddr != "" || *traceOut != "" {
		var opts []dspp.TelemetryOption
		if *traceOut != "" {
			traceFile, err = os.Create(*traceOut)
			if err != nil {
				return fmt.Errorf("create trace: %w", err)
			}
			defer traceFile.Close()
			opts = append(opts, dspp.WithTraceWriter(traceFile))
		}
		tel = dspp.NewTelemetry(opts...)
		if *telemetryAddr != "" {
			addr, stopServe, err := dspp.ServeTelemetry(*telemetryAddr, tel)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "dsppsim: telemetry on http://%s/metrics /statusz\n", addr)
			defer func() {
				if *serveAfter > 0 {
					fmt.Fprintf(os.Stderr, "dsppsim: serving telemetry for another %s\n", *serveAfter)
					time.Sleep(*serveAfter)
				}
				if serr := stopServe(); serr != nil {
					fmt.Fprintln(os.Stderr, "dsppsim:", serr)
				}
			}()
		}
	}
	if *continental {
		if *diurnalAmp < 0 || *diurnalAmp > 1 {
			return fmt.Errorf("diurnal-amp %g out of range [0,1]", *diurnalAmp)
		}
		return runContinental(out, tel, continentalRun{
			locations: *locations, dcsites: *dcsites,
			periods: *periods, horizon: *horizon, seed: *seed,
			diurnalAmp: *diurnalAmp,
		})
	}
	if *numDCs < 1 || *numDCs > 4 {
		return fmt.Errorf("dcs %d out of range 1-4", *numDCs)
	}
	if *numMetros < 1 || *numMetros > 20 {
		return fmt.Errorf("metros %d out of range 1-20", *numMetros)
	}

	// Data centers at the paper's sites, priced by their regions.
	dcNames := []string{"San Jose", "Houston", "Atlanta", "Chicago"}
	regionNames := []string{"CA", "TX", "GA", "IL"}
	var dcCities []dspp.City
	var priceModels []dspp.PriceModel
	for i := 0; i < *numDCs; i++ {
		city, ok := dspp.CityByName(dcNames[i])
		if !ok {
			return fmt.Errorf("missing city %q", dcNames[i])
		}
		dcCities = append(dcCities, city)
		region, ok := dspp.RegionByName(regionNames[i])
		if !ok {
			return fmt.Errorf("missing region %q", regionNames[i])
		}
		priceModels = append(priceModels, dspp.DiurnalServerPrice{
			Region: region, Class: dspp.MediumVM,
		})
	}
	// Demand metros: the most populous cities not hosting a DC.
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
		if len(metros) == *numMetros {
			break
		}
	}
	net, err := dspp.BuildGeoNetwork(dcCities, metros, 0.002)
	if err != nil {
		return err
	}
	// A CDN-class SLA (30 ms end-to-end) makes locality matter: distant
	// DCs are SLA-infeasible for most metros, so each region is served
	// nearby and the controller trades the remaining latency headroom
	// against regional prices as in Fig. 5. With few DCs (-dcs 1..2) some
	// metros may have no feasible DC at this SLA; the constructor reports
	// that as an infeasible-placement error.
	sla, err := dspp.SLAMatrix(net.LatencyMatrix(), dspp.SLAConfig{Mu: 150, MaxDelay: 0.03})
	if err != nil {
		return err
	}
	weights := make([]float64, *numDCs)
	caps := make([]float64, *numDCs)
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
		return err
	}

	// Population-weighted diurnal Poisson demand, phase-shifted per metro
	// longitude (rough time zones).
	total := 0
	for _, m := range metros {
		total += m.Population
	}
	rng := rand.New(rand.NewSource(*seed))
	demandTrace := make([][]float64, *periods+*horizon+1)
	for k := range demandTrace {
		demandTrace[k] = make([]float64, len(metros))
	}
	for v, m := range metros {
		base := 3000 * float64(m.Population) / float64(total)
		model, err := dspp.NewDiurnalDemand(base*0.15, base)
		if err != nil {
			return err
		}
		model.PhaseShift = int(m.Lon/15) + 6 // crude UTC offset alignment
		for k := range demandTrace {
			n, err := workload.SamplePoisson(model.Rate(k), 1, rng)
			if err != nil {
				return err
			}
			demandTrace[k][v] = float64(n)
		}
	}
	priceTrace := make([][]float64, *periods+*horizon+1)
	for k := range priceTrace {
		priceTrace[k] = make([]float64, *numDCs)
		for l, m := range priceModels {
			priceTrace[k][l] = m.Price(k)
		}
	}

	var demandPred dspp.Predictor
	switch strings.ToLower(*predictor) {
	case "perfect":
		demandPred = nil
	case "persistence":
		demandPred = dspp.PersistencePredictor{}
	case "seasonal":
		demandPred = dspp.SeasonalNaivePredictor{Season: 24}
	case "ar":
		demandPred = dspp.ARPredictor{P: 2}
	case "holtwinters":
		demandPred = dspp.HoltWintersPredictor{Season: 24}
	default:
		return fmt.Errorf("unknown predictor %q", *predictor)
	}

	sched, err := dspp.ParseFaultSchedule(faultFlags, *seed)
	if err != nil {
		return err
	}
	ctrlOpts := []dspp.ControllerOption{dspp.WithTelemetry(tel)}
	if *budget > 0 {
		ctrlOpts = append(ctrlOpts, dspp.WithBudget(*budget))
	}
	ctrl, err := dspp.NewController(inst, *horizon, ctrlOpts...)
	if err != nil {
		return err
	}
	res, err := dspp.Simulate(dspp.SimConfig{
		Instance:        inst,
		Policy:          dspp.NewMPCPolicy(ctrl),
		DemandTrace:     demandTrace,
		PriceTrace:      priceTrace,
		Periods:         *periods,
		Horizon:         *horizon,
		DemandPredictor: demandPred,
		Faults:          sched,
		Budget:          *budget,
		Telemetry:       tel,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "dsppsim: %d DCs, %d metros, %d periods, W=%d, predictor=%s\n",
		*numDCs, len(metros), *periods, *horizon, *predictor)
	sup := inst.Support()
	fmt.Fprintf(out, "support: %d/%d (DC, metro) pairs SLA-feasible (%.0f%% pruned), %d–%d DCs per metro\n\n",
		sup.FeasiblePairs, sup.TotalPairs, 100*sup.PrunedFraction,
		sup.MinDCsPerLocation, sup.MaxDCsPerLocation)
	fmt.Fprintf(out, "%-6s %12s", "hour", "demand")
	for i := 0; i < *numDCs; i++ {
		fmt.Fprintf(out, " %14s", dcNames[i])
	}
	withFaults := len(faultFlags) > 0 || *budget > 0
	fmt.Fprintf(out, " %10s %6s", "cost", "SLA")
	if withFaults {
		fmt.Fprintf(out, " %-s", "degradation")
	}
	fmt.Fprintln(out)
	for _, s := range res.Steps {
		var totalDemand float64
		for _, d := range s.Demand {
			totalDemand += d
		}
		fmt.Fprintf(out, "%-6d %12.0f", s.Period, totalDemand)
		for _, x := range s.ServersByDC {
			fmt.Fprintf(out, " %14.1f", x)
		}
		slaMark := "ok"
		if !s.SLAMet {
			slaMark = "MISS"
		}
		fmt.Fprintf(out, " %10.4f %6s", s.Cost.Total(), slaMark)
		if withFaults {
			fmt.Fprintf(out, " %s", s.Degradation)
			if *budget > 0 {
				fmt.Fprintf(out, " [%v]", s.Wall.Round(100*time.Microsecond))
			}
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "\ntotal cost %.4f (resource %.4f, reconfig %.4f), SLA violations %d/%d\n",
		res.TotalCost, res.TotalResource, res.TotalReconfig, res.SLAViolations, len(res.Steps))
	if withFaults {
		fmt.Fprintln(out, res.DegradationSummary())
	}
	if *budget > 0 {
		fmt.Fprintf(out, "budget %v: %d/%d period overruns (max step %v), anytime rungs %d\n",
			*budget, res.BudgetOverruns, len(res.Steps), res.MaxStepWall.Round(10*time.Microsecond), res.AnytimeSteps)
	}

	if tel != nil {
		fmt.Fprintf(out, "\ntelemetry:\n%s", dspp.MetricsTable(tel))
	}

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			return fmt.Errorf("create csv: %w", err)
		}
		defer f.Close()
		if err := dspp.WriteSimResultCSV(f, res, dcNames[:*numDCs]); err != nil {
			return fmt.Errorf("write csv: %w", err)
		}
		fmt.Fprintf(out, "wrote %s\n", *csvOut)
	}
	return nil
}

// traceSummary replays a JSONL span trace (written by -trace-out) into
// the per-span aggregate table and, when the trace covers a simulation
// run, the same degradation summary line the live run printed.
func traceSummary(args []string, out *os.File) error {
	fs := flag.NewFlagSet("dsppsim trace-summary", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dsppsim trace-summary <trace.jsonl>")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := dspp.ReadTrace(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d spans\n\n", len(events))
	fmt.Fprint(out, dspp.SummarizeTrace(events).Table())
	if line, ok := dspp.DegradationFromTrace(events); ok {
		fmt.Fprintf(out, "\n%s\n", line)
	}
	return nil
}
