package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// VectorOf returns a vector holding a copy of the given values.
func VectorOf(vals ...float64) Vector {
	v := make(Vector, len(vals))
	copy(v, vals)
	return v
}

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// norm2 is the Euclidean norm, for the property tests below.
func norm2(v Vector) float64 { return math.Sqrt(DotProd(v, v)) }

func TestVectorBasics(t *testing.T) {
	c := VectorOf(1, 2, 3)
	c.Fill(4)
	if c[0] != 4 || c[2] != 4 {
		t.Errorf("Fill = %v", c)
	}
	c.Zero()
	if c[0] != 0 || c[1] != 0 || c[2] != 0 {
		t.Errorf("Zero = %v", c)
	}
}

func TestVectorEmptyExtremes(t *testing.T) {
	var v Vector
	if v.NormInf() != 0 {
		t.Errorf("empty NormInf = %g, want 0", v.NormInf())
	}
}

func TestVectorNorms(t *testing.T) {
	v := VectorOf(3, -4)
	if v.NormInf() != 4 {
		t.Errorf("NormInf = %g, want 4", v.NormInf())
	}
}

// Property: dot product is symmetric and bilinear.
func TestQuickDotSymmetric(t *testing.T) {
	f := func(raw []float64) bool {
		a := clipVec(raw)
		b := make(Vector, len(a))
		for i := range b {
			b[i] = float64(i%7) - 3
		}
		return almostEqual(DotProd(a, b), DotProd(b, a), 1e-12)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: ||a+b|| <= ||a|| + ||b|| (triangle inequality).
func TestQuickTriangleInequality(t *testing.T) {
	f := func(raw []float64) bool {
		a := clipVec(raw)
		b := make(Vector, len(a))
		for i := range b {
			b[i] = math.Sin(float64(i)) * 10
		}
		s := VectorOf(a...)
		Axpy(1, b, s)
		return norm2(s) <= norm2(a)+norm2(b)+1e-9
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: Cauchy-Schwarz |a·b| <= ||a||·||b||.
func TestQuickCauchySchwarz(t *testing.T) {
	f := func(raw []float64) bool {
		a := clipVec(raw)
		b := make(Vector, len(a))
		for i := range b {
			b[i] = float64((i*13)%11) - 5
		}
		return math.Abs(DotProd(a, b)) <= norm2(a)*norm2(b)*(1+1e-12)+1e-9
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// clipVec replaces NaN/Inf/huge values so quick-generated inputs stay in a
// numerically meaningful range.
func clipVec(raw []float64) Vector {
	out := make(Vector, len(raw))
	for i, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		if x > 1e6 {
			x = 1e6
		}
		if x < -1e6 {
			x = -1e6
		}
		out[i] = x
	}
	return out
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(42))}
}
