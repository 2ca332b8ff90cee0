package linalg

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// solveBits hashes the bit patterns of x (FNV-1a over each float's bits).
func solveBits(x Vector) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		u := math.Float64bits(v)
		for k := range b {
			b[k] = byte(u >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSolveBitsPinned pins the output bits of BandCholesky.Solve and
// Cholesky.Solve on fixed seeded systems: the shapes whose back
// substitution once ran off a transposed copy of the factor (a 315-row
// bw-6 horizon band, the dense k = 60 band of the n120 Schur complement,
// bw-2 bands longer than 682 rows) and two dense systems. The pinned
// hashes were recorded with that copy in place, so any change to the
// order of the substitution's products shows here.
func TestSolveBitsPinned(t *testing.T) {
	repeat := func(n int, ws ...int) []int {
		var out []int
		for len(out) < n {
			out = append(out, ws...)
		}
		return out
	}
	band := []struct {
		name  string
		build func(*rand.Rand) (*BandMatrix, []int)
		want  uint64
	}{
		{"horizon-n315-bw6", func(rng *rand.Rand) (*BandMatrix, []int) {
			_, b, first, _ := horizonBlocks(rng, repeat(30, 6, 1, 3, 5, 2, 4), 3)
			return b, first
		}, 0x8674bf1f7363acf},
		{"full-k60", func(rng *rand.Rand) (*BandMatrix, []int) {
			_, b := randBandSPD(rng, 60, 59)
			return b, FullBand(60, 59).first
		}, 0x3f45f20ee7093677},
		{"horizon-n693-bw2", func(rng *rand.Rand) (*BandMatrix, []int) {
			_, b, first, _ := horizonBlocks(rng, repeat(132, 2, 1, 2, 2), 3)
			return b, first
		}, 0x8fd6f5bc98921653},
		{"full-n700-bw2", func(rng *rand.Rand) (*BandMatrix, []int) {
			_, b := randBandSPD(rng, 700, 2)
			return b, FullBand(700, 2).first
		}, 0xa006019815db602d},
	}
	for k, tc := range band {
		rng := rand.New(rand.NewSource(int64(100 + k)))
		b, first := tc.build(rng)
		env, err := NewEnvelope(append([]int(nil), first...))
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewBandCholesky(b.Bandwidth(), env)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Factorize(b); err != nil {
			t.Fatal(err)
		}
		rhs, x := NewVector(b.N()), NewVector(b.N())
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		if err := c.Solve(rhs, x); err != nil {
			t.Fatal(err)
		}
		if got := solveBits(x); got != tc.want {
			t.Errorf("BandCholesky %s (n %d, bw %d): solve bits %#x, pinned %#x", tc.name, b.N(), b.Bandwidth(), got, tc.want)
		}
	}
	for k, tc := range []struct {
		n    int
		want uint64
	}{{3, 0x8ba93af0e7fa3b33}, {60, 0xaa90275cb6197b97}} {
		rng := rand.New(rand.NewSource(int64(200 + k)))
		c, err := NewCholesky(randSPD(rng, tc.n))
		if err != nil {
			t.Fatal(err)
		}
		rhs, x := NewVector(tc.n), NewVector(tc.n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		if err := c.Solve(rhs, x); err != nil {
			t.Fatal(err)
		}
		if got := solveBits(x); got != tc.want {
			t.Errorf("Cholesky %d×%d: solve bits %#x, pinned %#x", tc.n, tc.n, got, tc.want)
		}
	}
}
