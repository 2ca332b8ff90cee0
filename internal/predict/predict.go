// Package predict implements the analysis-and-prediction module of the
// paper's architecture (Fig. 2): given the history of a scalar series
// (demand of one location, or price of one DC), forecast the next W
// values. The paper uses autoregressive (AR) models [24] and notes the
// framework is generic in the predictor; we provide Perfect (oracle),
// Persistence, SeasonalNaive, MovingAverage, an OLS-fit AR(p) and
// additive Holt-Winters smoothing.
package predict

import (
	"errors"
	"fmt"
	"math"

	"dspp/internal/linalg"
)

// Sentinel errors.
var (
	// ErrBadParameter flags invalid predictor parameters.
	ErrBadParameter = errors.New("predict: invalid parameter")
	// ErrInsufficientHistory means the history is too short to fit or
	// forecast.
	ErrInsufficientHistory = errors.New("predict: insufficient history")
)

// Predictor forecasts future values of a series given its past.
type Predictor interface {
	// Forecast returns the predicted values for the next horizon periods
	// after the end of history. history[len-1] is the most recent value.
	Forecast(history []float64, horizon int) ([]float64, error)
}

// Perfect is an oracle that knows the true future series; it indexes the
// trace by absolute period, so it must be constructed with the series and
// the alignment rule that history ends at period len(history)-1.
type Perfect struct {
	// Series is the full true series indexed by absolute period.
	Series []float64
}

// Forecast implements Predictor: returns the true future values, clamping
// at the last known value past the end of the series.
func (p Perfect) Forecast(history []float64, horizon int) ([]float64, error) {
	if horizon < 0 {
		return nil, fmt.Errorf("horizon %d: %w", horizon, ErrBadParameter)
	}
	if len(p.Series) == 0 {
		return nil, fmt.Errorf("empty oracle series: %w", ErrInsufficientHistory)
	}
	out := make([]float64, horizon)
	base := len(history)
	for i := 0; i < horizon; i++ {
		idx := base + i
		if idx >= len(p.Series) {
			idx = len(p.Series) - 1
		}
		out[i] = p.Series[idx]
	}
	return out, nil
}

// Persistence predicts that the last observed value repeats.
type Persistence struct{}

// Forecast implements Predictor.
func (Persistence) Forecast(history []float64, horizon int) ([]float64, error) {
	if horizon < 0 {
		return nil, fmt.Errorf("horizon %d: %w", horizon, ErrBadParameter)
	}
	if len(history) == 0 {
		return nil, ErrInsufficientHistory
	}
	last := history[len(history)-1]
	out := make([]float64, horizon)
	for i := range out {
		out[i] = last
	}
	return out, nil
}

// SeasonalNaive repeats the value observed one season (e.g. 24 periods)
// ago, the natural predictor for the paper's diurnal traces.
type SeasonalNaive struct {
	// Season is the period length (must be ≥ 1).
	Season int
}

// Forecast implements Predictor.
func (s SeasonalNaive) Forecast(history []float64, horizon int) ([]float64, error) {
	if s.Season < 1 {
		return nil, fmt.Errorf("season %d: %w", s.Season, ErrBadParameter)
	}
	if horizon < 0 {
		return nil, fmt.Errorf("horizon %d: %w", horizon, ErrBadParameter)
	}
	if len(history) < s.Season {
		return nil, fmt.Errorf("history %d < season %d: %w", len(history), s.Season, ErrInsufficientHistory)
	}
	out := make([]float64, horizon)
	for i := range out {
		// Index of the same phase in the most recent full season.
		idx := len(history) - s.Season + (i % s.Season)
		out[i] = history[idx]
	}
	return out, nil
}

// MovingAverage predicts the mean of the last Window observations.
type MovingAverage struct {
	// Window is the averaging window (must be ≥ 1).
	Window int
}

// Forecast implements Predictor.
func (m MovingAverage) Forecast(history []float64, horizon int) ([]float64, error) {
	if m.Window < 1 {
		return nil, fmt.Errorf("window %d: %w", m.Window, ErrBadParameter)
	}
	if horizon < 0 {
		return nil, fmt.Errorf("horizon %d: %w", horizon, ErrBadParameter)
	}
	if len(history) == 0 {
		return nil, ErrInsufficientHistory
	}
	w := m.Window
	if w > len(history) {
		w = len(history)
	}
	var sum float64
	for _, x := range history[len(history)-w:] {
		sum += x
	}
	avg := sum / float64(w)
	out := make([]float64, horizon)
	for i := range out {
		out[i] = avg
	}
	return out, nil
}

// AR is an autoregressive model of order P with intercept, refit by
// ordinary least squares on every Forecast call (the history is the
// training set, as in the paper's online setting).
type AR struct {
	// P is the model order (≥ 1).
	P int
	// Ridge is an optional Tikhonov regularizer for the OLS fit; 0 uses a
	// small default that keeps near-constant series well conditioned.
	Ridge float64
	// Window, when positive, fits on only the most recent Window
	// observations (a rolling window) instead of the full history. Short
	// windows make the fit adaptive but noisy — multi-step forecasts can
	// extrapolate phantom trends, which is exactly the failure mode the
	// paper observes for long prediction horizons on volatile series.
	Window int
}

// Forecast implements Predictor: fits x_t = b₀ + Σ bᵢ·x_{t−i} by OLS and
// iterates the recursion horizon steps ahead. Negative forecasts are
// clamped to zero (demand and prices are nonnegative).
func (a AR) Forecast(history []float64, horizon int) ([]float64, error) {
	if a.P < 1 {
		return nil, fmt.Errorf("order %d: %w", a.P, ErrBadParameter)
	}
	if horizon < 0 {
		return nil, fmt.Errorf("horizon %d: %w", horizon, ErrBadParameter)
	}
	coef, err := a.Fit(history)
	if err != nil {
		return nil, err
	}
	// Iterate the recursion. Forecasts are clamped to [0, 10·max(history)]:
	// an unstable fit (roots outside the unit circle) otherwise explodes
	// exponentially with the horizon, and no deployed forecaster would
	// emit demand orders of magnitude beyond anything ever observed.
	var histMax float64
	for _, x := range history {
		if x > histMax {
			histMax = x
		}
	}
	upper := 10 * histMax
	buf := append([]float64(nil), history...)
	out := make([]float64, horizon)
	for i := 0; i < horizon; i++ {
		pred := coef[0]
		for j := 1; j <= a.P; j++ {
			pred += coef[j] * buf[len(buf)-j]
		}
		if pred < 0 {
			pred = 0
		}
		if upper > 0 && pred > upper {
			pred = upper
		}
		out[i] = pred
		buf = append(buf, pred)
	}
	return out, nil
}

// Fit estimates the AR coefficients [intercept, b₁, …, b_P] by OLS.
// It needs at least 2·P+2 observations for a meaningful fit.
func (a AR) Fit(history []float64) ([]float64, error) {
	if a.P < 1 {
		return nil, fmt.Errorf("order %d: %w", a.P, ErrBadParameter)
	}
	minObs := 2*a.P + 2
	if a.Window > 0 && a.Window < minObs {
		return nil, fmt.Errorf("window %d < %d: %w", a.Window, minObs, ErrBadParameter)
	}
	if len(history) < minObs {
		return nil, fmt.Errorf("history %d < %d: %w", len(history), minObs, ErrInsufficientHistory)
	}
	if a.Window > 0 && len(history) > a.Window {
		history = history[len(history)-a.Window:]
	}
	for i, x := range history {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("history[%d] = %g: %w", i, x, ErrBadParameter)
		}
	}
	rows := len(history) - a.P
	x := linalg.NewMatrix(rows, a.P+1)
	y := linalg.NewVector(rows)
	for t := 0; t < rows; t++ {
		x.Set(t, 0, 1)
		for j := 1; j <= a.P; j++ {
			x.Set(t, j, history[t+a.P-j])
		}
		y[t] = history[t+a.P]
	}
	ridge := a.Ridge
	if ridge == 0 {
		ridge = 1e-8
	}
	coef, err := linalg.LeastSquares(x, y, ridge)
	if err != nil {
		return nil, fmt.Errorf("ar fit: %w", err)
	}
	return coef, nil
}
