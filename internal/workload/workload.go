// Package workload generates the request demand that drives the DSPP
// controller. The paper (§VII) generates requests "from a non-homogeneous
// Poisson process that considers both the population of each city as well
// as the time of day", with an on-off profile: high arrival rate during
// working hours (8am–5pm) and low at night. This package implements that
// generator plus the deterministic profiles used by the controlled
// experiments (constant demand for Fig. 5/10, volatile random-walk demand
// for Fig. 9, flash crowds for robustness tests).
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrBadParameter flags invalid model parameters.
var ErrBadParameter = errors.New("workload: invalid parameter")

// Model produces the mean arrival rate (requests/s) at a given period.
// Implementations must be deterministic functions of (period, their own
// seeded state); the simulator calls Rate exactly once per period in
// increasing order.
type Model interface {
	// Rate returns the mean arrival rate for period k.
	Rate(k int) float64
}

// Constant is a demand model with a fixed arrival rate.
type Constant struct{ Level float64 }

// Rate implements Model.
func (c Constant) Rate(int) float64 { return c.Level }

// Diurnal is the paper's on-off daily profile smoothed with a sinusoidal
// shoulder: high during working hours, low at night.
type Diurnal struct {
	// Base is the overnight arrival rate.
	Base float64
	// Peak is the working-hours arrival rate.
	Peak float64
	// PeriodsPerDay is the number of control periods per day (e.g. 24
	// for hourly periods).
	PeriodsPerDay int
	// WorkStart and WorkEnd delimit the high-rate window in periods
	// (defaults 8 and 17 when zero, matching the paper's 8am–5pm).
	WorkStart, WorkEnd int
	// PhaseShift offsets local time, e.g. to model time zones.
	PhaseShift int
}

// NewDiurnal builds the paper's profile with hourly periods.
func NewDiurnal(base, peak float64) (*Diurnal, error) {
	if base < 0 || peak < base {
		return nil, fmt.Errorf("base=%g peak=%g: %w", base, peak, ErrBadParameter)
	}
	return &Diurnal{Base: base, Peak: peak, PeriodsPerDay: 24, WorkStart: 8, WorkEnd: 17}, nil
}

// Rate implements Model.
func (d *Diurnal) Rate(k int) float64 {
	ppd := d.PeriodsPerDay
	if ppd <= 0 {
		ppd = 24
	}
	ws, we := d.WorkStart, d.WorkEnd
	if ws == 0 && we == 0 {
		ws, we = 8, 17
	}
	hour := ((k+d.PhaseShift)%ppd + ppd) % ppd
	// Smooth one-period ramps at the window edges keep the QP well behaved
	// while preserving the on-off character.
	switch {
	case hour >= ws && hour < we:
		// Mild midday bump between 90% and 100% of the peak excess.
		frac := float64(hour-ws) / math.Max(1, float64(we-ws))
		return d.Base + (d.Peak-d.Base)*(0.9+0.1*math.Sin(frac*math.Pi))
	case hour == ws-1 || hour == we:
		return d.Base + (d.Peak-d.Base)*0.5
	default:
		return d.Base
	}
}

// Sinusoid is a smooth daily profile: mean + amplitude·sin.
type Sinusoid struct {
	Mean, Amplitude float64
	PeriodsPerDay   int
	Phase           float64
}

// Rate implements Model.
func (s Sinusoid) Rate(k int) float64 {
	ppd := s.PeriodsPerDay
	if ppd <= 0 {
		ppd = 24
	}
	r := s.Mean + s.Amplitude*math.Sin(2*math.Pi*float64(k)/float64(ppd)+s.Phase)
	if r < 0 {
		return 0
	}
	return r
}

// RandomWalk is the volatile demand model for Fig. 9: a mean-reverting
// multiplicative random walk that is hard for simple predictors.
type RandomWalk struct {
	level, mean float64
	volatility  float64
	reversion   float64
	rng         *rand.Rand
	lastK       int
	started     bool
}

// NewRandomWalk creates a mean-reverting random walk starting at mean.
// volatility is the per-period relative standard deviation; reversion in
// (0,1] pulls the level back toward the mean.
func NewRandomWalk(mean, volatility, reversion float64, rng *rand.Rand) (*RandomWalk, error) {
	if mean <= 0 || volatility < 0 || reversion <= 0 || reversion > 1 {
		return nil, fmt.Errorf("mean=%g vol=%g rev=%g: %w", mean, volatility, reversion, ErrBadParameter)
	}
	if rng == nil {
		return nil, fmt.Errorf("nil rng: %w", ErrBadParameter)
	}
	return &RandomWalk{level: mean, mean: mean, volatility: volatility, reversion: reversion, rng: rng}, nil
}

// Rate implements Model. Repeated calls with the same k return the same
// value; the walk advances one step per new period.
func (w *RandomWalk) Rate(k int) float64 {
	if !w.started {
		w.started = true
		w.lastK = k
		return w.level
	}
	for w.lastK < k {
		shock := 1 + w.volatility*w.rng.NormFloat64()
		if shock < 0.1 {
			shock = 0.1
		}
		w.level = w.level*shock + w.reversion*(w.mean-w.level)
		if w.level < 0 {
			w.level = 0
		}
		w.lastK++
	}
	return w.level
}

// FlashCrowd wraps a base model and injects a multiplicative spike over
// [Start, Start+Duration).
type FlashCrowd struct {
	Base       Model
	Start      int
	Duration   int
	Multiplier float64
}

// Rate implements Model.
func (f FlashCrowd) Rate(k int) float64 {
	r := f.Base.Rate(k)
	if k >= f.Start && k < f.Start+f.Duration {
		return r * f.Multiplier
	}
	return r
}

// Scaled multiplies a base model by a constant factor (used for
// population weighting).
type Scaled struct {
	Base   Model
	Factor float64
}

// Rate implements Model.
func (s Scaled) Rate(k int) float64 { return s.Base.Rate(k) * s.Factor }

// Trace is a precomputed demand series usable as a Model; out-of-range
// periods clamp to the nearest endpoint.
type Trace []float64

// Rate implements Model.
func (t Trace) Rate(k int) float64 {
	if len(t) == 0 {
		return 0
	}
	if k < 0 {
		k = 0
	}
	if k >= len(t) {
		k = len(t) - 1
	}
	return t[k]
}

// Materialize evaluates a model over [0, periods) into a Trace.
func Materialize(m Model, periods int) (Trace, error) {
	if m == nil || periods < 0 {
		return nil, fmt.Errorf("model=%v periods=%d: %w", m, periods, ErrBadParameter)
	}
	out := make(Trace, periods)
	for k := 0; k < periods; k++ {
		out[k] = m.Rate(k)
	}
	return out, nil
}

// SamplePoisson draws the realized number of arrivals in a period of the
// given duration, for a mean rate. It uses the inversion method for small
// means and a normal approximation for large ones, as is standard for
// workload generators at data-center request volumes.
func SamplePoisson(rate, periodSec float64, rng *rand.Rand) (int, error) {
	if rate < 0 || periodSec <= 0 {
		return 0, fmt.Errorf("rate=%g period=%g: %w", rate, periodSec, ErrBadParameter)
	}
	if rng == nil {
		return 0, fmt.Errorf("nil rng: %w", ErrBadParameter)
	}
	mean := rate * periodSec
	if mean == 0 {
		return 0, nil
	}
	if mean > 50 {
		n := int(math.Round(mean + math.Sqrt(mean)*rng.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n, nil
	}
	// Knuth inversion.
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k, nil
		}
		k++
	}
}
