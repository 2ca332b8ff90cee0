package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"dspp/internal/telemetry"
)

// Addr returns the HTTP listen address once Run has started the server
// (useful with Config.Addr port 0; empty until then).
func (d *Daemon) Addr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.httpAddr
}

// startHTTP serves the daemon's ops surface: POST /observe enqueues one
// JSON observation, /healthz reports liveness and loop progress,
// /metrics exposes the telemetry registry in Prometheus text format, and
// /statusz serves the per-period cost-attribution ring as JSON.
func (d *Daemon) startHTTP() (addr string, stop func() error, err error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/observe", d.handleObserve)
	mux.HandleFunc("/healthz", d.handleHealthz)
	if d.cfg.Telemetry != nil {
		mux.Handle("/metrics", telemetry.MetricsHandler(d.cfg.Telemetry.Registry()))
		mux.Handle("/statusz", telemetry.StatuszHandler(d.cfg.Telemetry))
	}
	ln, err := net.Listen("tcp", d.cfg.Addr)
	if err != nil {
		return "", nil, fmt.Errorf("daemon: listen %s: %w", d.cfg.Addr, err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return ln.Addr().String(), func() error {
		if err := srv.Close(); err != nil {
			return err
		}
		if err := <-done; err != nil && err != http.ErrServerClosed {
			return err
		}
		return nil
	}, nil
}

// handleObserve accepts one observation per POST. A body over
// maxObservationBytes answers 413, and a full queue 503 so a fast
// producer gets backpressure instead of silent drops.
func (d *Daemon) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var obs Observation
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxObservationBytes)).Decode(&obs); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad observation: %v", err), code)
		return
	}
	select {
	case d.obsCh <- obs:
		w.WriteHeader(http.StatusAccepted)
	default:
		http.Error(w, "observation queue full", http.StatusServiceUnavailable)
	}
}

// handleHealthz reports loop progress as JSON; any response at all means
// the process is alive, the body says whether the loop is moving.
func (d *Daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	status := struct {
		Status        string  `json:"status"`
		Period        int     `json:"period"`
		LastWallMS    float64 `json:"last_wall_ms"`
		WatchdogTrips int     `json:"watchdog_trips"`
		QueueDepth    int     `json:"queue_depth"`
	}{
		Status:        "ok",
		Period:        d.period,
		LastWallMS:    float64(d.lastWall) / float64(time.Millisecond),
		WatchdogTrips: d.watchdogTrips,
		QueueDepth:    len(d.obsCh),
	}
	d.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(status) //nolint:errcheck // best-effort health body
}
