package predict

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPerfectOracle(t *testing.T) {
	series := []float64{10, 20, 30, 40, 50}
	p := Perfect{Series: series}
	fc, err := p.Forecast(series[:2], 2)
	if err != nil {
		t.Fatal(err)
	}
	if fc[0] != 30 || fc[1] != 40 {
		t.Errorf("forecast = %v, want [30 40]", fc)
	}
	// Clamps at the end of the series.
	fc, err = p.Forecast(series[:4], 3)
	if err != nil {
		t.Fatal(err)
	}
	if fc[0] != 50 || fc[1] != 50 || fc[2] != 50 {
		t.Errorf("clamped forecast = %v", fc)
	}
	if _, err := p.Forecast(series, -1); !errors.Is(err, ErrBadParameter) {
		t.Errorf("negative horizon err = %v", err)
	}
	empty := Perfect{}
	if _, err := empty.Forecast(series, 1); !errors.Is(err, ErrInsufficientHistory) {
		t.Errorf("empty oracle err = %v", err)
	}
}

func TestPersistence(t *testing.T) {
	fc, err := Persistence{}.Forecast([]float64{1, 2, 7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fc {
		if v != 7 {
			t.Fatalf("forecast = %v, want all 7", fc)
		}
	}
	if _, err := (Persistence{}).Forecast(nil, 1); !errors.Is(err, ErrInsufficientHistory) {
		t.Errorf("empty history err = %v", err)
	}
	if _, err := (Persistence{}).Forecast([]float64{1}, -1); !errors.Is(err, ErrBadParameter) {
		t.Errorf("negative horizon err = %v", err)
	}
}

func TestSeasonalNaive(t *testing.T) {
	// Two full days of a period-4 series.
	history := []float64{1, 2, 3, 4, 1, 2, 3, 4}
	s := SeasonalNaive{Season: 4}
	fc, err := s.Forecast(history, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 4, 1, 2}
	for i := range want {
		if fc[i] != want[i] {
			t.Fatalf("forecast = %v, want %v", fc, want)
		}
	}
	if _, err := (SeasonalNaive{Season: 0}).Forecast(history, 1); !errors.Is(err, ErrBadParameter) {
		t.Errorf("season 0 err = %v", err)
	}
	if _, err := s.Forecast(history[:2], 1); !errors.Is(err, ErrInsufficientHistory) {
		t.Errorf("short history err = %v", err)
	}
	if _, err := s.Forecast(history, -2); !errors.Is(err, ErrBadParameter) {
		t.Errorf("negative horizon err = %v", err)
	}
}

func TestMovingAverage(t *testing.T) {
	fc, err := (MovingAverage{Window: 2}).Forecast([]float64{1, 3, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fc[0] != 4 || fc[1] != 4 {
		t.Errorf("forecast = %v, want [4 4]", fc)
	}
	// Window longer than history uses all of it.
	fc, err = (MovingAverage{Window: 10}).Forecast([]float64{2, 4}, 1)
	if err != nil || fc[0] != 3 {
		t.Errorf("forecast = %v, %v", fc, err)
	}
	if _, err := (MovingAverage{Window: 0}).Forecast([]float64{1}, 1); !errors.Is(err, ErrBadParameter) {
		t.Errorf("window 0 err = %v", err)
	}
	if _, err := (MovingAverage{Window: 2}).Forecast(nil, 1); !errors.Is(err, ErrInsufficientHistory) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := (MovingAverage{Window: 2}).Forecast([]float64{1}, -1); !errors.Is(err, ErrBadParameter) {
		t.Errorf("negative horizon err = %v", err)
	}
}

func TestARRecoversKnownProcess(t *testing.T) {
	// x_t = 5 + 0.6·x_{t−1} (stationary mean 12.5), no noise.
	series := make([]float64, 100)
	series[0] = 1
	for t2 := 1; t2 < len(series); t2++ {
		series[t2] = 5 + 0.6*series[t2-1]
	}
	coef, err := (AR{P: 1}).Fit(series)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]-5) > 0.05 || math.Abs(coef[1]-0.6) > 0.01 {
		t.Errorf("coef = %v, want [5 0.6]", coef)
	}
	fc, err := (AR{P: 1}).Forecast(series, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := series[len(series)-1]
	for i := 0; i < 3; i++ {
		want = 5 + 0.6*want
		if math.Abs(fc[i]-want) > 0.1 {
			t.Errorf("step %d forecast %g, want %g", i, fc[i], want)
		}
	}
}

func TestARNoisyProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	series := make([]float64, 400)
	series[0] = 10
	for i := 1; i < len(series); i++ {
		series[i] = 4 + 0.7*series[i-1] + rng.NormFloat64()
	}
	coef, err := (AR{P: 1}).Fit(series)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[1]-0.7) > 0.1 {
		t.Errorf("slope = %g, want ~0.7", coef[1])
	}
}

func TestARErrors(t *testing.T) {
	if _, err := (AR{P: 0}).Forecast([]float64{1, 2, 3}, 1); !errors.Is(err, ErrBadParameter) {
		t.Errorf("order 0 err = %v", err)
	}
	if _, err := (AR{P: 3}).Forecast([]float64{1, 2, 3}, 1); !errors.Is(err, ErrInsufficientHistory) {
		t.Errorf("short history err = %v", err)
	}
	long := make([]float64, 50)
	if _, err := (AR{P: 2}).Forecast(long, -1); !errors.Is(err, ErrBadParameter) {
		t.Errorf("negative horizon err = %v", err)
	}
}

func TestARClampNegative(t *testing.T) {
	// A steeply decreasing series extrapolates negative; forecasts clamp.
	series := []float64{100, 80, 60, 40, 20, 10, 4, 2}
	fc, err := (AR{P: 1}).Forecast(series, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range fc {
		if v < 0 {
			t.Errorf("step %d forecast %g < 0", i, v)
		}
	}
}

func TestARConstantSeries(t *testing.T) {
	series := make([]float64, 30)
	for i := range series {
		series[i] = 42
	}
	fc, err := (AR{P: 2}).Forecast(series, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fc {
		if math.Abs(v-42) > 0.5 {
			t.Errorf("constant series forecast %v", fc)
			break
		}
	}
}

func TestMSEComparesPredictors(t *testing.T) {
	// Diurnal-ish seasonal series: seasonal naive must beat persistence.
	series := make([]float64, 24*8)
	for i := range series {
		h := i % 24
		if h >= 8 && h < 17 {
			series[i] = 100
		} else {
			series[i] = 10
		}
	}
	mseSeason, err := MSE(SeasonalNaive{Season: 24}, series, 48)
	if err != nil {
		t.Fatal(err)
	}
	msePersist, err := MSE(Persistence{}, series, 48)
	if err != nil {
		t.Fatal(err)
	}
	if mseSeason >= msePersist {
		t.Errorf("seasonal MSE %g should beat persistence %g", mseSeason, msePersist)
	}
	if mseSeason > 1e-9 {
		t.Errorf("seasonal naive on exactly periodic series MSE = %g, want 0", mseSeason)
	}
}

func TestMSEErrors(t *testing.T) {
	if _, err := MSE(nil, []float64{1, 2}, 1); !errors.Is(err, ErrBadParameter) {
		t.Errorf("nil predictor err = %v", err)
	}
	if _, err := MSE(Persistence{}, []float64{1, 2}, 0); !errors.Is(err, ErrBadParameter) {
		t.Errorf("warmup 0 err = %v", err)
	}
	if _, err := MSE(Persistence{}, []float64{1, 2}, 5); !errors.Is(err, ErrBadParameter) {
		t.Errorf("warmup >= len err = %v", err)
	}
}

// Property: Persistence forecasts are constant and equal to the last value.
func TestQuickPersistenceConstant(t *testing.T) {
	f := func(raw []float64, h uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				raw[i] = 0
			}
		}
		horizon := int(h%20) + 1
		fc, err := Persistence{}.Forecast(raw, horizon)
		if err != nil {
			return false
		}
		last := raw[len(raw)-1]
		for _, v := range fc {
			if v != last {
				return false
			}
		}
		return len(fc) == horizon
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(14))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: AR forecasts of nonnegative series are nonnegative (clamping).
func TestQuickARNonnegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(80)
		series := make([]float64, n)
		for i := range series {
			series[i] = math.Abs(rng.NormFloat64()) * 50
		}
		fc, err := (AR{P: 2}).Forecast(series, 5)
		if err != nil {
			return false
		}
		for _, v := range fc {
			if v < 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestARRejectsNaNHistory(t *testing.T) {
	series := make([]float64, 20)
	series[7] = math.NaN()
	if _, err := (AR{P: 2}).Fit(series); !errors.Is(err, ErrBadParameter) {
		t.Errorf("NaN history err = %v", err)
	}
	series[7] = math.Inf(1)
	if _, err := (AR{P: 2}).Forecast(series, 2); !errors.Is(err, ErrBadParameter) {
		t.Errorf("Inf history err = %v", err)
	}
}

func TestARWindowValidation(t *testing.T) {
	series := make([]float64, 30)
	if _, err := (AR{P: 2, Window: 3}).Fit(series); !errors.Is(err, ErrBadParameter) {
		t.Errorf("tiny window err = %v", err)
	}
	// A valid rolling window uses only the suffix: fitting on a series
	// whose early half is garbage must ignore it.
	for i := range series {
		if i < 15 {
			series[i] = 1e6
		} else {
			series[i] = 10
		}
	}
	coef, err := (AR{P: 1, Window: 10}).Fit(series)
	if err != nil {
		t.Fatal(err)
	}
	// Constant 10 suffix: intercept + slope·10 ≈ 10.
	if pred := coef[0] + coef[1]*10; math.Abs(pred-10) > 1 {
		t.Errorf("windowed fit predicts %g, want ~10", pred)
	}
}

// MSE returns the mean squared one-step error of a predictor evaluated by
// walking forward through the series with an expanding window starting at
// warmup observations.
func MSE(p Predictor, series []float64, warmup int) (float64, error) {
	if p == nil {
		return 0, fmt.Errorf("nil predictor: %w", ErrBadParameter)
	}
	if warmup < 1 || warmup >= len(series) {
		return 0, fmt.Errorf("warmup %d of %d: %w", warmup, len(series), ErrBadParameter)
	}
	var sum float64
	var n int
	for t := warmup; t < len(series); t++ {
		fc, err := p.Forecast(series[:t], 1)
		if err != nil {
			return 0, err
		}
		d := fc[0] - series[t]
		sum += d * d
		n++
	}
	return sum / float64(n), nil
}
