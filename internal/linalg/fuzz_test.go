package linalg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzNarrowBandKernels checks the unrolled per-iteration band passes bit
// for bit against the loops they unroll, on random envelopes of
// half-bandwidth 2–8: Solve against solveEnvelope (also with b and x
// aliased; at bw 2 up to the sign of a zero), the symmetric MulVec
// against mulVecRows, and MulVecT on a matrix whose columns hold 1–4
// entries against the general column loop.
//
// shape[0] picks the bandwidth and shape[1] the pattern. An even
// shape[1] draws horizonBlocks over 1–3 steps, the rest of shape giving
// the block widths (width-1 blocks and mixed widths among them). An odd
// one draws a full band from randBandSPD and cuts it to random
// non-decreasing row starts, so that rows of any length, diagonal-only
// first rows among them, meet the kernels' edges; the entries cut become
// +0 or −0. Right-hand sides and products carry zeros of both signs.
func FuzzNarrowBandKernels(f *testing.F) {
	for bw := byte(2); bw <= 8; bw++ {
		f.Add(int64(bw), []byte{bw - 2, 0, 1, bw, 2, bw - 1, 1, 3})
		f.Add(int64(bw)+10, []byte{bw - 2, 2, 0, 1, 0, 1})
		f.Add(int64(bw)+20, []byte{bw - 2, 4, 5, 3, 7})
		f.Add(int64(bw)+30, []byte{bw - 2, 1, 40})
		f.Add(int64(bw)+40, []byte{bw - 2, 3, 9})
	}
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		if len(shape) < 3 || len(shape) > 64 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		bw := 2 + int(shape[0])%7
		var b *BandMatrix
		var first []int
		if shape[1]%2 == 0 {
			first, b = fuzzHorizonBlocks(rng, bw, shape)
		} else {
			first, b = fuzzEnvelope(rng, bw, int(shape[2]))
		}
		n := b.N()
		env, err := NewEnvelope(slices.Clone(first))
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
		rhs := fuzzVector(rng, n)
		got, want := NewVector(n), NewVector(n)
		if err := c.Solve(rhs, got); err != nil {
			t.Fatal(err)
		}
		c.solveEnvelope(rhs, want)
		// solveBW2 reads the band's padding, +0: on a row with padding, a
		// right-hand side entry of −0 ahead of a negative x comes out +0
		// where the envelope loop keeps −0 (−0 − (+0·x) is +0). That
		// zero's sign is the one bit it may change.
		signedZeros := bw > 2
		sameBits(t, "Solve", got, want, signedZeros)
		copy(got, rhs)
		if err := c.Solve(got, got); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "Solve in place", got, want, signedZeros)

		if err := b.MulVec(rhs, got); err != nil {
			t.Fatal(err)
		}
		clear(want)
		b.mulVecRows(rhs, want, 0, n)
		sameBits(t, "MulVec", got, want, true)

		m := fuzzShortColumns(t, rng, n)
		xt := fuzzVector(rng, m.Rows())
		if err := m.MulVecT(xt, got); err != nil {
			t.Fatal(err)
		}
		for j := range want {
			var s float64
			for k := m.colPtr[j]; k < m.colPtr[j+1]; k++ {
				s += m.valsT[k] * xt[m.rowIdxT[k]]
			}
			want[j] = s
		}
		sameBits(t, "MulVecT", got, want, true)
	})
}

// fuzzHorizonBlocks draws horizonBlocks of half-bandwidth bw: shape[1]
// picks the steps, shape[3:] the block widths, and the widest block sits
// where shape[2] says.
func fuzzHorizonBlocks(rng *rand.Rand, bw int, shape []byte) ([]int, *BandMatrix) {
	w := 1 + int(shape[1]/2)%3
	widest := bw // a block's pairs couple to themselves one step later
	if w == 1 {
		widest = bw + 1
	}
	widths := []int{widest}
	for _, s := range shape[3:] {
		widths = append(widths, 1+int(s)%widest)
	}
	k := int(shape[2]) % len(widths)
	widths[0], widths[k] = widths[k], widths[0]
	_, b, first, _ := horizonBlocks(rng, widths, w)
	return first, b
}

// fuzzEnvelope draws a band of half-bandwidth bw over bw+1+extra%(4·bw)
// rows from randBandSPD and cuts it to random non-decreasing row starts,
// writing +0 or −0 into the entries cut. Cutting an off-diagonal entry
// keeps the matrix diagonally dominant, so it stays SPD.
func fuzzEnvelope(rng *rand.Rand, bw, extra int) ([]int, *BandMatrix) {
	n := bw + 1 + extra%(4*bw)
	_, b := randBandSPD(rng, n, bw)
	first := make([]int, n)
	for i := range first {
		lo := max(0, i-bw)
		if i > 0 {
			lo = max(lo, first[i-1])
		}
		first[i] = lo + rng.Intn(i-lo+1)
		for j := max(0, i-bw); j < first[i]; j++ {
			_ = b.Set(i, j, math.Copysign(0, float64(rng.Intn(2))-0.5))
		}
	}
	return first, b
}

// fuzzShortColumns builds a CSR matrix with cols columns, each holding
// 1–4 entries in random rows, some of them ±0.
func fuzzShortColumns(t *testing.T, rng *rand.Rand, cols int) *SparseMatrix {
	t.Helper()
	rows := 4 + rng.Intn(cols)
	byRow := make([][]int, rows)
	for j := 0; j < cols; j++ {
		for _, r := range rng.Perm(rows)[:1+rng.Intn(4)] {
			byRow[r] = append(byRow[r], j)
		}
	}
	sb := NewSparseBuilder(rows, cols, 0)
	for _, cs := range byRow {
		sb.StartRow()
		for _, j := range cs {
			sb.Add(j, fuzzValue(rng))
		}
	}
	m, err := sb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fuzzVector draws n entries of fuzzValue.
func fuzzVector(rng *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = fuzzValue(rng)
	}
	return v
}

// fuzzValue is a normal deviate, or one time in eight a zero of either
// sign.
func fuzzValue(rng *rand.Rand) float64 {
	switch rng.Intn(16) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	}
	return rng.NormFloat64()
}

// sameBits fails unless got and want hold the same bits, or, without
// signedZeros, are zeros of either sign.
func sameBits(t *testing.T, what string, got, want Vector, signedZeros bool) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && (signedZeros || got[i] != 0 || want[i] != 0) {
			t.Fatalf("%s[%d] = %v, reference loop %v", what, i, got[i], want[i])
		}
	}
}
