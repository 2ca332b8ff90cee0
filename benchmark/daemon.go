package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dspp/internal/core"
	"dspp/internal/daemon"
	"dspp/internal/predict"
	"dspp/internal/pricing"
	"dspp/internal/telemetry"
	"dspp/internal/topology"
)

// Daemon settings as dsppd ships them, but for the budget.
const (
	daemonHorizon = 5
	// daemonBudget arms the same deadline-bounded solve as dsppd's 50 ms
	// (an anytime solve under a timeout context, the watchdog at four
	// budgets), but far beyond any period: a sub-millisecond period caught
	// by a burst of CPU steal on a shared machine fired the 50 ms deadline,
	// and the anytime plan it gave changed the plan trajectory and the
	// failed count with the machine, not the code.
	daemonBudget = 2 * time.Second
	// lateLimit is how late after it was due a plan may arrive before it
	// counts in daemon.late_plans. Lateness is measured, not failed: a
	// burst of steal makes plans late whatever the code does.
	lateLimit = 50 * time.Millisecond
	// maxGeneratorLagMS flags a run whose load generator could not keep
	// the light-rate schedule.
	maxGeneratorLagMS = 1.0
	// reportWait bounds how long the harness waits for an outstanding
	// report before declaring it missing.
	reportWait = 10 * time.Second
	// spinWindow is how far ahead of a due time the open-loop generator
	// stops sleeping and spins.
	spinWindow = 1500 * time.Microsecond
	// refLead is how far ahead of a light-rate due time the generator
	// samples the reference kernel: one unit and the spin fit in it.
	refLead = 3 * time.Millisecond
	// closedChunk is how many closed-loop round trips run between two
	// reference samples.
	closedChunk = 100
)

// daemonParams sizes the daemon-paper stream: segments repetitions of a
// light open-loop, a loaded open-loop and a closed-loop segment.
type daemonParams struct {
	lightRate, loadedRate          float64 // observations per second
	segments                       int
	lightPer, loadedPer, closedPer int // observations per segment
}

func daemonSize(seconds int, toy bool) daemonParams {
	if toy {
		return daemonParams{lightRate: 100, loadedRate: 200, segments: 1, lightPer: 100, loadedPer: 50, closedPer: 50}
	}
	// At 15 s: 120 light observations (0.6 s), 180 loaded (0.45 s) and 600
	// closed (about 0.5 s) per segment, ten segments; a segment's p90 has
	// twelve observations beyond it. The loaded rate is 400/s, not 800/s:
	// on one thread the closed loop's capacity, checkpoint included,
	// ranged from 620/s to 1590/s with the load of the shared machine, and
	// at 800/s its slow spells left hundreds of plans more than lateLimit
	// late per run.
	return daemonParams{
		lightRate: 200, loadedRate: 400, segments: 10,
		lightPer: 8 * seconds, loadedPer: 12 * seconds, closedPer: 40 * seconds,
	}
}

func (p daemonParams) total() int { return p.segments * (p.lightPer + p.loadedPer + p.closedPer) }

// paperInstance builds the instance dsppd serves: DCs at San Jose,
// Houston, Atlanta and Chicago, the eight most populous other metros, a
// 30 ms SLA at μ = 150.
func paperInstance() (*core.Instance, []topology.City, error) {
	var dcs []topology.City
	for _, name := range []string{"San Jose", "Houston", "Atlanta", "Chicago"} {
		c, ok := topology.CityByName(name)
		if !ok {
			return nil, nil, fmt.Errorf("missing city %q", name)
		}
		dcs = append(dcs, c)
	}
	var metros []topology.City
	for _, c := range topology.USCities() {
		hosts := false
		for _, d := range dcs {
			hosts = hosts || d.Name == c.Name
		}
		if !hosts {
			metros = append(metros, c)
		}
		if len(metros) == 8 {
			break
		}
	}
	net, err := topology.BuildGeo(dcs, metros, 0.002)
	if err != nil {
		return nil, nil, err
	}
	sla, err := core.SLAMatrix(net.LatencyMatrix(), core.SLAConfig{Mu: 150, MaxDelay: 0.03})
	if err != nil {
		return nil, nil, err
	}
	weights := []float64{2e-5, 2e-5, 2e-5, 2e-5}
	caps := []float64{2000, 2000, 2000, 2000}
	inst, err := core.NewInstance(core.Config{SLA: sla, ReconfigWeights: weights, Capacities: caps})
	return inst, metros, err
}

// paperObservations encodes n observation lines: population-weighted
// demand with a ±30% diurnal swing phased by longitude and 5% Gaussian
// noise drawn from the seed, and the paper regions' hourly server prices.
func paperObservations(metros []topology.City, n int, seed int64) ([][]byte, []daemon.Observation, error) {
	var total float64
	for _, m := range metros {
		total += float64(m.Population)
	}
	regions := pricing.PaperRegions()
	rng := rand.New(rand.NewSource(seed))
	lines := make([][]byte, n)
	obs := make([]daemon.Observation, n)
	for k := 0; k < n; k++ {
		o := daemon.Observation{Demand: make([]float64, len(metros)), Prices: make([]float64, len(regions))}
		for v, m := range metros {
			base := 3000 * float64(m.Population) / total
			phase := m.Lon/15 + 6
			f := (1 + 0.3*math.Sin(2*math.Pi*(float64(k)+phase)/24)) * (1 + 0.05*rng.NormFloat64())
			o.Demand[v] = math.Max(0, base*f)
		}
		for l, r := range regions {
			o.Prices[l] = pricing.DiurnalServer{Region: r, Class: pricing.MediumVM}.Price(k)
		}
		data, err := json.Marshal(o)
		if err != nil {
			return nil, nil, err
		}
		lines[k] = append(data, '\n')
		obs[k] = o
	}
	return lines, obs, nil
}

// reportLog is the daemon's report stream: it stamps each JSON line with
// the wall and the process CPU time at which the daemon wrote it and
// signals the closed-loop sender.
type reportLog struct {
	mu      sync.Mutex
	at      []time.Time
	cpu     []time.Duration
	lines   [][]byte
	arrived chan struct{}
}

func newReportLog(expected int) *reportLog {
	// One signal per expected report, so Write never blocks the daemon.
	return &reportLog{arrived: make(chan struct{}, expected)}
}

func (l *reportLog) Write(p []byte) (int, error) {
	now, cpu := time.Now(), processCPU()
	l.mu.Lock()
	l.at = append(l.at, now)
	l.cpu = append(l.cpu, cpu)
	l.lines = append(l.lines, append([]byte(nil), p...))
	l.mu.Unlock()
	select {
	case l.arrived <- struct{}{}:
	default:
	}
	return len(p), nil
}

// wait blocks until n more reports have arrived.
func (l *reportLog) wait(n int) error {
	timer := time.NewTimer(reportWait)
	defer timer.Stop()
	for i := 0; i < n; i++ {
		select {
		case <-l.arrived:
		case <-timer.C:
			return fmt.Errorf("%d of %d reports missing after %v", n-i, n, reportWait)
		}
	}
	return nil
}

// arrival returns when report i was written, in wall and process CPU
// time.
func (l *reportLog) arrival(i int) (time.Time, time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i >= len(l.at) {
		return time.Time{}, 0, false
	}
	return l.at[i], l.cpu[i], true
}

// feedOpenLoop writes lines[i] when it is due, at start + i/rate, and
// returns the due times, how late the generator got each line into the
// stream, and the process CPU time at each write. A write that blocks
// delays the lines behind it; their latency is still counted from their
// due time. With a clock, the generator samples the reference kernel
// refLead before each due time, while the daemon is idle, and returns
// each line's reference factor; a line whose sample would not fit before
// it is due (a late timer) keeps the previous factor.
func feedOpenLoop(w io.Writer, lines [][]byte, start time.Time, rate float64, clock *refClock) ([]time.Time, []time.Duration, []time.Duration, []float64, error) {
	due := make([]time.Time, len(lines))
	lag := make([]time.Duration, len(lines))
	sent := make([]time.Duration, len(lines))
	var scale []float64
	k := 1.0
	for i, line := range lines {
		due[i] = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if clock != nil {
			if d := time.Until(due[i]) - refLead; d > 0 {
				time.Sleep(d)
			}
			if i == 0 || time.Until(due[i]) > refLead/2 {
				k = float64(refUnit) / float64(clock.sample())
			}
			scale = append(scale, k)
		}
		sleepUntil(due[i])
		lag[i] = time.Since(due[i])
		sent[i] = processCPU()
		if _, err := w.Write(line); err != nil {
			return due, lag, sent, scale, err
		}
	}
	return due, lag, sent, scale, nil
}

// sleepUntil returns at t: it sleeps on a Go timer until spinWindow
// before t, since timers wake up to a millisecond late, and then spins,
// yielding to every runnable goroutine, so the generator is awake at the
// due time without taking the daemon's turn.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// timedPredictor wraps the daemon's forecaster to time every call.
type timedPredictor struct {
	predict.Predictor
	mu    sync.Mutex
	calls []time.Duration
}

func (p *timedPredictor) Forecast(history []float64, horizon int) ([]float64, error) {
	start := time.Now()
	out, err := p.Predictor.Forecast(history, horizon)
	d := time.Since(start)
	p.mu.Lock()
	p.calls = append(p.calls, d)
	p.mu.Unlock()
	return out, err
}

// daemonRun is one daemon fed one observation stream.
type daemonRun struct {
	d    *daemon.Daemon
	hub  *telemetry.Hub
	log  *reportLog
	pw   *io.PipeWriter
	errc chan error
	ckpt string
}

// newDaemon builds a daemon configured as dsppd ships it, checkpointing
// every period into dir.
func newDaemon(inst *core.Instance, dir string, hub *telemetry.Hub, pred predict.Predictor, expected int) (*daemonRun, error) {
	log := newReportLog(expected)
	ckpt := filepath.Join(dir, "dsppd.ckpt")
	d, err := daemon.New(daemon.Config{
		Instance:       inst,
		Horizon:        daemonHorizon,
		Budget:         daemonBudget,
		Predictor:      pred,
		CheckpointPath: ckpt,
		Telemetry:      hub,
		Out:            log,
	})
	if err != nil {
		return nil, err
	}
	return &daemonRun{d: d, hub: hub, log: log, ckpt: ckpt}, nil
}

func (dr *daemonRun) start(ctx context.Context) {
	pr, pw := io.Pipe()
	dr.pw = pw
	dr.errc = make(chan error, 1)
	go func() {
		err := dr.d.Run(ctx, pr)
		pr.CloseWithError(io.ErrClosedPipe)
		dr.errc <- err
	}()
}

// stop ends the observation stream and waits for the daemon to drain it.
// A second call returns nil at once, so callers can also defer it for
// their error paths.
func (dr *daemonRun) stop() error {
	if dr.errc == nil {
		return nil
	}
	dr.pw.Close()
	err := <-dr.errc
	dr.errc = nil
	return err
}

// closedLoop sends each line only after the previous report arrived,
// returning each round trip and the phase's wall and process CPU time;
// first is the index of the first report the phase produces. With tr
// set, each round trip is a bench.op span.
func (dr *daemonRun) closedLoop(lines [][]byte, first int, tr *telemetry.Tracer) (rtt []time.Duration, wall, cpu time.Duration, err error) {
	rtt = make([]time.Duration, len(lines))
	sw := startStopwatch()
	for i, line := range lines {
		sp := tr.Start(spanOp, 0)
		sent := time.Now()
		if _, err := dr.pw.Write(line); err != nil {
			return nil, 0, 0, err
		}
		if err := dr.log.wait(1); err != nil {
			return nil, 0, 0, err
		}
		sp.End()
		at, _, ok := dr.log.arrival(first + i)
		if !ok {
			return nil, 0, 0, fmt.Errorf("report %d missing", first+i)
		}
		rtt[i] = at.Sub(sent)
	}
	wall, cpu = sw.elapsed()
	return rtt, wall, cpu, nil
}

// reports decodes the report lines.
func (dr *daemonRun) reports() ([]daemon.Report, []time.Time, error) {
	dr.log.mu.Lock()
	defer dr.log.mu.Unlock()
	reps := make([]daemon.Report, len(dr.log.lines))
	for i, line := range dr.log.lines {
		if err := json.Unmarshal(line, &reps[i]); err != nil {
			return nil, nil, fmt.Errorf("report line %d: %w", i, err)
		}
	}
	return reps, append([]time.Time(nil), dr.log.at...), nil
}

// checkDaemon verifies every report and the daemon's final allocation
// against the instance, returning how many observations failed: a missing
// report, an error, a degraded mode, an overrun or a watchdog restart. It
// records as daemon.late_plans how many plans arrived later than
// lateLimit after their observation was due (sent, in the closed loop).
func checkDaemon(r *runRecord, dr *daemonRun, inst *core.Instance, obs []daemon.Observation, late []time.Duration) int {
	reps, _, err := dr.reports()
	if err != nil {
		r.problem(err)
		return len(obs)
	}
	failed := 0
	if len(reps) < len(obs) {
		failed += len(obs) - len(reps)
	}
	for i, rep := range reps {
		if i >= len(obs) {
			r.check(false, "unexpected report %d", i)
			break
		}
		r.check(rep.Err != "" || rep.Period == i, "report %d is for period %d", i, rep.Period)
		if rep.Err != "" || rep.Mode != core.DegradeNone.String() || rep.Overrun || rep.Watchdog {
			failed++
		}
	}
	nLate := 0
	for _, l := range late {
		if l > lateLimit {
			nLate++
		}
	}
	r.set("daemon.late_plans", float64(nLate), "count", len(late))
	// Capacity of every retained period, from the attribution ring.
	for _, a := range dr.hub.Attribution().Ring().Snapshot() {
		for _, dc := range a.DCs {
			c, cerr := inst.Capacity(dc.DC)
			r.check(cerr == nil && dc.Servers <= c*(1+capRelTol)+capRelTol,
				"period %d: DC %d hosts %g servers, capacity %g", a.Period, dc.DC, dc.Servers, c)
		}
	}
	// The final plan must cover the demand it was planned for: the last
	// observation under the corrections the last report applied.
	if n := len(reps); n > 0 && n == len(obs) {
		last := reps[n-1]
		demand := make([]float64, len(obs[n-1].Demand))
		for v, d := range obs[n-1].Demand {
			demand[v] = d * last.DemandCorr * last.DelayCorr
		}
		if err := checkPlan(inst, dr.d.State(), demand); err != nil {
			r.problem(fmt.Errorf("daemon final plan: %w", err))
		}
	}
	return failed
}

// daemonPhase is one stretch of the observation stream.
type daemonPhase int

const (
	phaseLight daemonPhase = iota
	phaseLoaded
	phaseClosed
)

// runDaemonPaper drives an in-process dsppd through one observation
// stream of repeated segments: an open loop at the light rate, an open
// loop at the loaded rate, then a closed loop that sends each
// observation when the previous plan arrives.
func runDaemonPaper(e *env) error {
	p := daemonSize(e.seconds, e.toy)
	r := e.rec
	total := p.total()
	dir, err := os.MkdirTemp("", "dsppbench-daemon-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// The timed rebuilds run after this function has removed dir, so like
	// the first build they find no checkpoint to resume from.
	var inst *core.Instance
	var metros []topology.City
	err = e.setup(func() error {
		var err error
		if inst, metros, err = paperInstance(); err != nil {
			return err
		}
		_, err = newDaemon(inst, dir, telemetry.New(), predict.Persistence{}, 1)
		return err
	})
	if err != nil {
		return err
	}
	lines, obs, err := paperObservations(metros, total, e.seed)
	if err != nil {
		return err
	}

	hub := e.hub()
	pred := &timedPredictor{Predictor: predict.Persistence{}}
	dr, err := newDaemon(inst, dir, hub, pred, total)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dr.start(ctx)
	defer dr.stop() //nolint:errcheck // the success path checks stop's error
	mem := startMem()

	// The stream repeats light, loaded and closed segments, so each
	// condition is sampled across the whole run, and the tail and the
	// closed-loop time are medians over segments: a slow checkpoint write
	// moves one segment's numbers, not the reported ones. A light-rate
	// observation's time is the process CPU time from its write into the
	// stream to its plan, the daemon's service time, scaled by the
	// reference sample taken just before it was due; the closed loop runs
	// in chunks between two samples. The wall-time latencies, counted
	// from when each observation was due, are kept as extras: they add
	// the waits for a CPU that a shared machine imposes. The loaded rate,
	// whose queue grows faster than the machine slows, is only in wall
	// time.
	late := make([]time.Duration, total) // from due to plan
	phase := make([]daemonPhase, total)
	var lightMS, lightRef, lagMS []float64
	var closed time.Duration
	var segTail, segClosed []float64 // per segment: light p90, closed-loop reference seconds
	var lay daemonLayers
	next := 0
	for s := 0; s < p.segments; s++ {
		segClosed = append(segClosed, 0)
		for _, ph := range []struct {
			phase daemonPhase
			n     int
			rate  float64
		}{{phaseLight, p.lightPer, p.lightRate}, {phaseLoaded, p.loadedPer, p.loadedRate}, {phaseClosed, p.closedPer, 0}} {
			first, seg := next, lines[next:next+ph.n]
			for i := first; i < first+ph.n; i++ {
				phase[i] = ph.phase
			}
			next += ph.n
			if ph.phase == phaseClosed {
				for c := 0; c < len(seg); c += closedChunk {
					chunk := seg[c:min(c+closedChunk, len(seg))]
					var wall, cpu time.Duration
					k, err := e.clock.around(func() error {
						rtt, w, cu, err := dr.closedLoop(chunk, first+c, e.tracer(hub))
						copy(late[first+c:], rtt)
						wall, cpu = w, cu
						return err
					})
					if err != nil {
						return err
					}
					closed += wall
					segClosed[s] += cpu.Seconds() * k
				}
			} else {
				var clock *refClock
				if ph.phase == phaseLight {
					clock = e.clock
				}
				due, lag, sent, scale, err := feedOpenLoop(dr.pw, seg, time.Now().Add(refLead), ph.rate, clock)
				if err != nil {
					return err
				}
				if err := dr.log.wait(ph.n); err != nil {
					return err
				}
				done := make([]time.Time, len(due))
				service := make([]time.Duration, len(due)) // process CPU from write to plan
				for i := range due {
					at, cpu, ok := dr.log.arrival(first + i)
					if !ok {
						return fmt.Errorf("report %d missing", first+i)
					}
					done[i], service[i] = at, cpu-sent[i]
				}
				copy(late[first:], lateness(due, done))
				if ph.phase == phaseLight {
					lagMS = append(lagMS, ms(lag)...)
					lightMS = append(lightMS, ms(late[first:first+ph.n])...)
					var ref []float64
					for i, c := range ms(service) {
						ref = append(ref, c*scale[i])
					}
					lightRef = append(lightRef, ref...)
					segTail = append(segTail, e.tail(ref, 90))
				}
			}
			events, err := e.drain()
			if err != nil {
				return err
			}
			lay.add(events)
		}
	}
	if err := dr.stop(); err != nil {
		return err
	}
	mem.perOp(r, total)
	r.Attempted = total
	r.Failed = checkDaemon(r, dr, inst, obs, late)

	var loadedMS []float64
	for i, l := range late {
		if phase[i] == phaseLoaded {
			loadedMS = append(loadedMS, float64(l)/float64(time.Millisecond))
		}
	}
	nClosed := p.segments * p.closedPer
	e.setTimes("", lightRef, median(segTail), float64(p.segments)*median(segClosed), nClosed)
	e.setTimes("wall.", lightMS, percentile(lightMS, 90), closed.Seconds(), nClosed)
	// The daemon's own names, in wall time, and the rest of its
	// end-to-end picture.
	r.set("plan_latency_p50_ms", percentile(lightMS, 50), "ms", len(lightMS))
	r.set("plan_latency_p99_ms", e.tail(lightMS, 99), "ms", len(lightMS))
	r.set("loaded_latency_p90_ms", percentile(loadedMS, 90), "ms", len(loadedMS))
	r.set("loaded_latency_p99_ms", e.tail(loadedMS, 99), "ms", len(loadedMS))
	r.set("saturation_periods_per_s", float64(nClosed)/closed.Seconds(), "1/s", nClosed)
	lag := percentile(lagMS, 99)
	r.set("load.generator_lag_ms_p99", lag, "ms", len(lagMS))
	if !e.toy && lag > maxGeneratorLagMS {
		// The harness, not the program, missed its schedule: the wall-time
		// latencies of this run are suspect; its outputs and CPU times are
		// not.
		fmt.Fprintf(os.Stderr, "benchmark: daemon-paper: warning: load generator ran %.3f ms late at p99 (limit %g ms); this run's wall-time latencies are invalid\n",
			lag, maxGeneratorLagMS)
	}
	daemonFingerprint(r, dr)
	if e.traced() {
		return lay.record(r, dr, hub, pred, late, phase, total)
	}
	return nil
}

// daemonFingerprint records the plan trajectory: period costs and server
// totals depend only on the observation stream, never on timing.
func daemonFingerprint(r *runRecord, dr *daemonRun) {
	reps, _, err := dr.reports()
	if err != nil {
		return
	}
	var cost, servers float64
	for _, rep := range reps {
		cost += rep.Cost
		servers += rep.Servers
	}
	r.fingerprint("daemon.total_cost", cost)
	r.fingerprint("daemon.total_servers", servers)
}

// daemonLayers accumulates the spans of a traced daemon run: the closed
// loop's round trips (bench.op) split into QP time and the rest, and each
// MPC step's time outside its QP solve.
type daemonLayers struct {
	ops            opLayers
	stepMS, selfMS []float64
}

func (l *daemonLayers) add(events []telemetry.TraceEvent) {
	g := l.ops.add(events)
	steps := g[telemetry.SpanMPCStep]
	cov := covered(intervals(steps), intervals(g[telemetry.SpanQPSolve]))
	for i, s := range steps {
		l.stepMS = append(l.stepMS, float64(s.DurUS)/1e3)
		l.selfMS = append(l.selfMS, float64(s.DurUS-cov[i])/1e3)
	}
}

// record writes the daemon's per-layer metrics: the closed loop's split,
// the solver counts per observation, and the shares of a period spent
// forecasting, between periods (checkpoint and codec, in the closed loop)
// and queued (at the loaded rate).
func (l *daemonLayers) record(r *runRecord, dr *daemonRun, hub *telemetry.Hub, pred *timedPredictor, late []time.Duration, phase []daemonPhase, total int) error {
	reps, at, err := dr.reports()
	if err != nil {
		return err
	}
	if len(reps) < total {
		return fmt.Errorf("%d of %d reports", len(reps), total)
	}
	l.ops.record(r)
	snapCounters(hub).recordQP(r, total)

	var wallSum, gapSum, betweenSum, waitSum, latSum float64
	var walls, waits []float64
	for i, rep := range reps[:total] {
		walls = append(walls, rep.WallMS)
		wallSum += rep.WallMS
		switch phase[i] {
		case phaseClosed:
			if i > 0 && phase[i-1] == phaseClosed {
				gap := float64(at[i].Sub(at[i-1])) / float64(time.Millisecond)
				gapSum += gap
				betweenSum += gap - rep.WallMS
			}
		case phaseLoaded:
			lat := float64(late[i]) / float64(time.Millisecond)
			waits = append(waits, lat-rep.WallMS)
			waitSum += lat - rep.WallMS
			latSum += lat
		}
	}
	pred.mu.Lock()
	forecastMS := ms(pred.calls)
	pred.mu.Unlock()
	if wallSum > 0 {
		r.set("daemon.forecast_share_pct", 100*sum(forecastMS)/wallSum, "%", len(walls))
	}
	if gapSum > 0 {
		r.set("daemon.between_periods_share_pct", 100*betweenSum/gapSum, "%", len(walls))
	}
	if latSum > 0 {
		r.set("daemon.queue_wait_share_pct", 100*waitSum/latSum, "%", len(waits))
	}
	if fi, err := os.Stat(dr.ckpt); err == nil {
		r.set("daemon.checkpoint_bytes", float64(fi.Size()), "B", 1)
	} else {
		r.problem(err)
	}
	// Workload-specific layer numbers.
	r.set("daemon.period_wall_ms_p50", percentile(walls, 50), "ms", len(walls))
	r.set("daemon.queue_wait_ms_p99", percentile(waits, 99), "ms", len(waits))
	r.set("predict.forecast_us_p50", percentile(scaled(forecastMS, 1e3), 50), "us", len(forecastMS))
	r.set("core.mpc_step_ms_p50", percentile(l.stepMS, 50), "ms", len(l.stepMS))
	r.set("core.step_self_ms_p50", percentile(l.selfMS, 50), "ms", len(l.selfMS))
	zeroLayers(r)
	return nil
}
