package game

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dspp/internal/core"
)

// recedingScenario draws a closed-loop competition from seed: 2–4
// providers with two locations each on three DCs (two capacitated, one
// uncapacitated that every location can reach), mixed server sizes, a
// noisy diurnal demand trace and, for odd seeds, a nonzero X0.
func recedingScenario(seed int64, periods, window int) ([]float64, []*DynamicProvider) {
	rng := rand.New(rand.NewSource(seed))
	capacity := []float64{8 + 8*rng.Float64(), 10 + 10*rng.Float64(), math.Inf(1)}
	n := 2 + rng.Intn(3)
	providers := make([]*DynamicProvider, n)
	for i := range providers {
		sla := [][]float64{
			{0.008 + 0.01*rng.Float64(), math.Inf(1)},
			{0.008 + 0.01*rng.Float64(), 0.008 + 0.01*rng.Float64()},
			{0.01 + 0.01*rng.Float64(), 0.01 + 0.01*rng.Float64()},
		}
		level := []float64{300 + 700*rng.Float64(), 300 + 700*rng.Float64()}
		demand := make([][]float64, periods+window)
		prices := make([][]float64, periods+window)
		for k := range demand {
			wave := 1 + 0.3*math.Sin(float64(k)/2)
			demand[k] = []float64{level[0] * wave * (0.9 + 0.2*rng.Float64()), level[1] * wave}
			prices[k] = []float64{0.08 + 0.04*rng.Float64(), 0.1 + 0.04*rng.Float64(), 1.0}
		}
		p := &DynamicProvider{
			Name:            "sp",
			SLA:             sla,
			ReconfigWeights: []float64{1e-4, 2e-4, 1e-4},
			ServerSize:      float64(1 + rng.Intn(2)),
			Demand:          demand,
			Prices:          prices,
		}
		if seed%2 == 1 {
			p.X0 = core.State{{1, 0}, {0.5, 0.5}, {2, 2}}
		}
		providers[i] = p
	}
	return capacity, providers
}

// recedingFingerprint hashes every bit a receding run reports: the
// total, per-provider costs, each period's round count and convergence,
// and every applied state.
func recedingFingerprint(res *RecedingResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	put(res.Total)
	for _, c := range res.Costs {
		put(c)
	}
	for k, r := range res.Rounds {
		put(float64(r))
		if res.Converged[k] {
			put(1)
		}
	}
	for _, states := range res.States {
		for _, x := range states {
			for _, row := range x {
				for _, v := range row {
					put(v)
				}
			}
		}
	}
	return h.Sum64()
}

// TestRunRecedingFingerprint pins RunReceding bit for bit on three seeded
// scenarios: each period's round count and convergence flag explicitly,
// so a change that moves the game's course names the period, and every
// other bit through the hash. That a reused session solves exactly as a
// fresh one does is checked by TestBestResponseSessionsBitIdentical* and
// core's TestControllerStepsMatchFreshSessions.
func TestRunRecedingFingerprint(t *testing.T) {
	want := map[int64]struct {
		rounds    []int
		converged []bool
		hash      uint64
	}{
		1: {[]int{4, 4, 4, 19, 60, 60}, []bool{true, true, true, true, false, false}, 0x16b9a82bba748acc},
		2: {[]int{3, 3, 3, 22, 4, 4}, []bool{true, true, true, true, true, true}, 0xa370fe6b332a8dd8},
		3: {[]int{60, 60, 60, 60, 60, 60}, []bool{false, false, false, false, false, false}, 0x570027884df6cdc3},
	}
	for _, seed := range []int64{1, 2, 3} {
		capacity, providers := recedingScenario(seed, 6, 3)
		res, err := RunReceding(capacity, providers, RecedingConfig{
			Window:  3,
			Periods: 6,
			BestResponse: BestResponseConfig{
				Alpha: 50, StepDecay: 0.5, Epsilon: 0.01, MaxIterations: 60, Parallel: 1,
			},
		})
		if err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		w := want[seed]
		if !slices.Equal(res.Rounds, w.rounds) || !slices.Equal(res.Converged, w.converged) {
			t.Errorf("seed %d: rounds %v converged %v, want %v %v", seed, res.Rounds, res.Converged, w.rounds, w.converged)
		}
		if got := recedingFingerprint(res); got != w.hash {
			t.Errorf("seed %d: fingerprint %#x, want %#x (total %.17g)", seed, got, w.hash, res.Total)
		}
	}
}
