package linalg

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestMatrixFromRows(t *testing.T) {
	m, err := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %g, want 3", m.At(1, 0))
	}
	if _, err := MatrixFromRows([][]float64{{1}, {2, 3}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("ragged rows err = %v", err)
	}
	empty, err := MatrixFromRows(nil)
	if err != nil || empty.Rows() != 0 {
		t.Errorf("empty: %v rows=%d", err, empty.Rows())
	}
}

func TestNewMatrixNegativeDims(t *testing.T) {
	m := NewMatrix(-3, -4)
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Errorf("negative dims gave %dx%d, want 0x0", m.Rows(), m.Cols())
	}
}

func TestIdentityAndDiag(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(3)[%d,%d] = %g", i, j, id.At(i, j))
			}
		}
	}
	d := Diag(VectorOf(5, 7))
	if d.At(0, 0) != 5 || d.At(1, 1) != 7 || d.At(0, 1) != 0 {
		t.Errorf("Diag wrong: %v", d)
	}
}

func TestMatrixMulVec(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := NewVector(3)
	if err := m.MulVec(VectorOf(1, 1), y); err != nil {
		t.Fatal(err)
	}
	if y[0] != 3 || y[1] != 7 || y[2] != 11 {
		t.Errorf("MulVec = %v", y)
	}
	yt := NewVector(2)
	if err := m.MulVecT(VectorOf(1, 1, 1), yt); err != nil {
		t.Fatal(err)
	}
	if yt[0] != 9 || yt[1] != 12 {
		t.Errorf("MulVecT = %v", yt)
	}
	if err := m.MulVec(VectorOf(1), y); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("MulVec mismatch err = %v", err)
	}
	if err := m.MulVecT(VectorOf(1), yt); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("MulVecT mismatch err = %v", err)
	}
}

func TestMatrixMul(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := MatrixFromRows([][]float64{{0, 1}, {1, 0}})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{2, 1}, {4, 3}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d,%d] = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := Mul(a, NewMatrix(3, 2)); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Mul mismatch err = %v", err)
	}
}

func TestMatrixTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMatrix(rng, 4, 7)
	mt := m.T()
	for i := 0; i < 4; i++ {
		for j := 0; j < 7; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
	mtt := mt.T()
	for i := 0; i < 4; i++ {
		for j := 0; j < 7; j++ {
			if m.At(i, j) != mtt.At(i, j) {
				t.Fatal("double transpose not identity")
			}
		}
	}
}

func TestMatrixAddScaledAndDiag(t *testing.T) {
	a := Identity(2)
	b := Identity(2)
	if err := a.AddScaled(3, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 4 {
		t.Errorf("AddScaled diag = %g, want 4", a.At(0, 0))
	}
	if err := a.AddScaled(1, Diag(VectorOf(1, 2))); err != nil {
		t.Fatal(err)
	}
	if a.At(1, 1) != 6 || a.At(0, 1) != 0 {
		t.Errorf("AddScaled(Diag) = %v, want diag 5, 6", a)
	}
	if err := a.AddScaled(1, NewMatrix(3, 3)); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("AddScaled mismatch err = %v", err)
	}
}

// AtATWeighted must agree with the naive Gᵀ·diag(w)·G computation.
func TestAtATWeightedAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		g := randMatrix(rng, rows, cols)
		w := NewVector(rows)
		for i := range w {
			w[i] = rng.Float64() * 3
		}
		got := NewMatrix(cols, cols)
		if err := g.AtATWeighted(w, got); err != nil {
			t.Fatal(err)
		}
		wg, err := Mul(Diag(w), g)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Mul(g.T(), wg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cols; i++ {
			for j := 0; j < cols; j++ {
				if !almostEqual(got.At(i, j), want.At(i, j), 1e-10) {
					t.Fatalf("trial %d: (%d,%d) got %g want %g",
						trial, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

func TestAtATWeightedAccumulates(t *testing.T) {
	g := Identity(2)
	dst := Diag(VectorOf(10, 10))
	w := VectorOf(1, 1)
	if err := g.AtATWeighted(w, dst); err != nil {
		t.Fatal(err)
	}
	if dst.At(0, 0) != 11 {
		t.Errorf("accumulation lost existing contents: %g", dst.At(0, 0))
	}
}

func TestMatrixString(t *testing.T) {
	m := Identity(2)
	s := m.String()
	if !strings.Contains(s, "1") || !strings.Contains(s, "\n") {
		t.Errorf("String output unexpected: %q", s)
	}
}

// Property: (A·B)x == A·(B·x) for compatible shapes.
func TestQuickMulAssociatesWithVec(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randMatrix(r, m, k)
		b := randMatrix(r, k, n)
		x := NewVector(n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		ab, err := Mul(a, b)
		if err != nil {
			return false
		}
		lhs := NewVector(m)
		if err := ab.MulVec(x, lhs); err != nil {
			return false
		}
		bx := NewVector(k)
		if err := b.MulVec(x, bx); err != nil {
			return false
		}
		rhs := NewVector(m)
		if err := a.MulVec(bx, rhs); err != nil {
			return false
		}
		if err := lhs.AXPY(-1, rhs); err != nil {
			return false
		}
		return lhs.NormInf() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}
