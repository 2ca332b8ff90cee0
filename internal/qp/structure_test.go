package qp

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// structureCases are problems that exercise every part of the symbolic
// phase: dense rows in a full band (no coupling rows), linking rows over
// equal blocks, and the mixed-width horizon shape of the daemon
// (8 locations on 1–4 of 4 DCs, 5 steps).
func structureCases() map[string]*Problem {
	rng := rand.New(rand.NewSource(31))
	return map[string]*Problem{
		"full-band":     randomFeasibleQP(rng, 12, 20),
		"blocks":        blockAngularQP(rng, 8, 4, 3),
		"daemon-shaped": horizonShapedQP(rng, 4, 8, 5),
	}
}

// TestSharedStructureBitIdentical: a problem carrying its Structure
// solves bit-identically to the same problem analysed by the solve
// itself, on a fresh session and on a reused one, cold and warm.
func TestSharedStructureBitIdentical(t *testing.T) {
	for name, p := range structureCases() {
		sym, err := Analyze(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shared := *p
		shared.Structure = sym
		ses, err := NewSession(&shared, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var warm *WarmStart
		for round := 0; round < 3; round++ {
			want, err := solveOnce(p, DefaultOptions(), warm)
			if err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			one, err := solveOnce(&shared, DefaultOptions(), warm)
			if err != nil {
				t.Fatalf("%s round %d shared: %v", name, round, err)
			}
			viaSes, err := ses.Solve(warm)
			if err != nil {
				t.Fatalf("%s round %d session: %v", name, round, err)
			}
			for _, got := range []*Result{one, viaSes} {
				if got.Objective != want.Objective || got.Iterations != want.Iterations {
					t.Fatalf("%s round %d: objective/iterations %v/%d, want %v/%d", name, round,
						got.Objective, got.Iterations, want.Objective, want.Iterations)
				}
				for i := range want.X {
					if got.X[i] != want.X[i] {
						t.Fatalf("%s round %d: x[%d] %v != %v", name, round, i, got.X[i], want.X[i])
					}
				}
				for i := range want.IneqDuals {
					if got.IneqDuals[i] != want.IneqDuals[i] {
						t.Fatalf("%s round %d: z[%d] %v != %v", name, round, i, got.IneqDuals[i], want.IneqDuals[i])
					}
				}
			}
			warm = &WarmStart{X: want.X, Z: want.IneqDuals}
			p.H[0] *= 1.01
		}
	}
}

// TestStructureRejectsOtherMatrices: a Structure only serves the
// matrices and linking rows it was analysed for.
func TestStructureRejectsOtherMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	p := blockAngularQP(rng, 4, 3, 2)
	sym, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	other := blockAngularQP(rng, 4, 3, 2)
	cases := map[string]*Problem{
		"other G":       {Q: p.Q, C: p.C, G: other.G, H: p.H, Linking: p.Linking, Structure: sym},
		"other Q":       {Q: other.Q, C: p.C, G: p.G, H: p.H, Linking: p.Linking, Structure: sym},
		"fewer linking": {Q: p.Q, C: p.C, G: p.G, H: p.H, Linking: p.Linking[:1], Structure: sym},
	}
	for name, bad := range cases {
		if _, err := solveOnce(bad, DefaultOptions(), nil); !errors.Is(err, ErrBadProblem) {
			t.Fatalf("%s: err = %v, want ErrBadProblem", name, err)
		}
	}
	ok := *p
	ok.C, ok.H, ok.Structure = slices.Clone(p.C), slices.Clone(p.H), sym
	if _, err := solveOnce(&ok, DefaultOptions(), nil); err != nil {
		t.Fatalf("same matrices, new data: %v", err)
	}
}
