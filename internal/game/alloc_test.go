package game

import (
	"errors"
	"testing"
)

// TestBestResponseRoundSteadyStateAllocs guards the warm best-response
// round: a player's instance, capacity buffer and session are built once
// per game, and a one-worker round's fan-out is inline, so once the
// sessions are warm a round allocates nothing but the cost history's
// growth. It counts one game that never converges at r and at 2r rounds;
// the difference is r warm rounds of n providers, which may allocate once
// (the history doubling from 32 to 64 entries).
func TestBestResponseRoundSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector bookkeeping allocates nondeterministically")
	}
	const r = 20
	game := func(rounds int) func() {
		return func() {
			cfg := BestResponseConfig{Epsilon: 1e-12, MaxIterations: rounds, Parallel: 1}
			if _, err := BestResponse(twoProviderScenario(3, 5), cfg); !errors.Is(err, ErrNotConverged) {
				t.Fatalf("%d rounds: err = %v, want ErrNotConverged", rounds, err)
			}
		}
	}
	short := testing.AllocsPerRun(5, game(r))
	long := testing.AllocsPerRun(5, game(2*r))
	n := len(twoProviderScenario(3, 5).Providers)
	perRound := (long - short) / float64(r*n)
	t.Logf("%v allocs at %d rounds, %v at %d: %.3f per round per provider", short, r, long, 2*r, perRound)
	if bound := 1 / float64(r*n); perRound > bound {
		t.Fatalf("a warm round allocates %.3f times per provider, want at most %.3f", perRound, bound)
	}
}
