package linalg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomSparse draws a rows×cols matrix with the given fill density and
// returns both the dense and CSR forms.
func randomSparse(rng *rand.Rand, rows, cols int, density float64) (*Matrix, *SparseMatrix) {
	d := NewMatrix(rows, cols)
	b := NewSparseBuilder(rows, cols, int(float64(rows*cols)*density)+1)
	for i := 0; i < rows; i++ {
		b.StartRow()
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				v := rng.NormFloat64()
				d.Set(i, j, v)
				b.Add(j, v)
			}
		}
	}
	s, err := b.Build()
	if err != nil {
		panic(err)
	}
	return d, s
}

func TestSparseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		d, s := randomSparse(rng, rows, cols, 0.4)
		if s.Rows() != rows || s.Cols() != cols {
			t.Fatalf("dims %dx%d, want %dx%d", s.Rows(), s.Cols(), rows, cols)
		}
		for i := 0; i < rows; i++ {
			cs, vs := s.RowEntries(i)
			k := 0
			for j := 0; j < cols; j++ {
				if d.At(i, j) == 0 {
					continue
				}
				if k == len(cs) || cs[k] != j || vs[k] != d.At(i, j) {
					t.Fatalf("row %d: entries %v %v, dense (%d,%d) = %g", i, cs, vs, i, j, d.At(i, j))
				}
				k++
			}
			if k != len(cs) {
				t.Fatalf("row %d: %d entries, dense has %d", i, len(cs), k)
			}
		}
	}
}

func TestSparseMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		d, s := randomSparse(rng, rows, cols, 0.3)
		x := NewVector(cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		yd, ys := NewVector(rows), NewVector(rows)
		d.mulVec(x, yd)
		if err := s.MulVec(x, ys); err != nil {
			t.Fatal(err)
		}
		for i := range yd {
			if math.Abs(yd[i]-ys[i]) > 1e-12*(1+math.Abs(yd[i])) {
				t.Fatalf("MulVec[%d]: %g != %g", i, ys[i], yd[i])
			}
		}
		xt := NewVector(rows)
		for i := range xt {
			xt[i] = rng.NormFloat64()
		}
		td, ts := NewVector(cols), NewVector(cols)
		if err := d.MulVecT(xt, td); err != nil {
			t.Fatal(err)
		}
		if err := s.MulVecT(xt, ts); err != nil {
			t.Fatal(err)
		}
		for i := range td {
			if math.Abs(td[i]-ts[i]) > 1e-12*(1+math.Abs(td[i])) {
				t.Fatalf("MulVecT[%d]: %g != %g", i, ts[i], td[i])
			}
		}
	}
}

// TestSparseAtATWeightedMatchesDense checks the packed-band Gram
// assembly against the dense Matrix.AtATWeighted on random matrices whose
// rows hold one, two and three or more entries — the short-row
// dispatches and the general loop — with some weights zero, accumulating
// onto the same symmetric starting matrix.
func TestSparseAtATWeightedMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		rows, cols := 3+rng.Intn(12), 3+rng.Intn(10)
		d := NewMatrix(rows, cols)
		b := NewSparseBuilder(rows, cols, 0)
		for i := 0; i < rows; i++ {
			b.StartRow()
			k := 1 + i%3 // 1, 2, then 3 or more entries
			if k == 3 {
				k += rng.Intn(cols - 2)
			}
			for _, j := range rng.Perm(cols)[:k] {
				v := rng.NormFloat64()
				d.Set(i, j, v)
				b.Add(j, v)
			}
		}
		s, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		w := NewVector(rows)
		for i := range w {
			if rng.Intn(4) > 0 {
				w[i] = rng.Float64() + 0.1
			}
		}
		bw := s.gramBW
		gd, gb := NewMatrix(cols, cols), NewBandMatrix(cols, bw)
		for i := 0; i < cols; i++ {
			for j := max(0, i-bw); j <= i; j++ {
				v := rng.NormFloat64()
				gd.Set(i, j, v)
				gd.Set(j, i, v)
				if err := gb.Set(i, j, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := d.AtATWeighted(w, gd); err != nil {
			t.Fatal(err)
		}
		if err := s.AtATWeightedBand(w, gb); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cols; i++ {
			for j := 0; j < cols; j++ {
				if math.Abs(gd.At(i, j)-gb.At(i, j)) > 1e-12*(1+math.Abs(gd.At(i, j))) {
					t.Fatalf("trial %d (%d,%d): band %g, dense %g", trial, i, j, gb.At(i, j), gd.At(i, j))
				}
			}
		}
	}
}

func TestSparseMulVecDimChecks(t *testing.T) {
	_, s := randomSparse(rand.New(rand.NewSource(1)), 3, 4, 0.5)
	if err := s.MulVec(NewVector(3), NewVector(3)); err == nil {
		t.Error("MulVec with wrong x length: no error")
	}
	if err := s.MulVec(NewVector(4), NewVector(4)); err == nil {
		t.Error("MulVec with wrong y length: no error")
	}
	if err := s.MulVecT(NewVector(4), NewVector(4)); err == nil {
		t.Error("MulVecT with wrong x length: no error")
	}
	if err := s.AtATWeightedBand(NewVector(2), NewBandMatrix(4, 3)); err == nil {
		t.Error("AtATWeightedBand with wrong weight length: no error")
	}
	if err := s.AtATWeightedBand(NewVector(3), NewBandMatrix(3, 2)); err == nil {
		t.Error("AtATWeightedBand with wrong dst order: no error")
	}
}

func TestSparseBuilderErrors(t *testing.T) {
	b := NewSparseBuilder(2, 3, 0)
	b.StartRow()
	b.Add(1, 1.0)
	if _, err := b.Build(); err == nil {
		t.Error("Build with missing rows: no error")
	}

	b = NewSparseBuilder(1, 3, 0)
	b.Add(0, 1.0) // Add before StartRow
	if _, err := b.Build(); err == nil {
		t.Error("Add before StartRow: no error")
	}

	b = NewSparseBuilder(1, 3, 0)
	b.StartRow()
	b.Add(3, 1.0) // column out of range
	if _, err := b.Build(); err == nil {
		t.Error("column out of range: no error")
	}

	b = NewSparseBuilder(1, 3, 0)
	b.StartRow()
	b.Add(1, 1.0)
	b.Add(1, 2.0) // duplicate column
	if _, err := b.Build(); err == nil {
		t.Error("duplicate column: no error")
	}

	b = NewSparseBuilder(1, 2, 0)
	b.StartRow()
	b.StartRow() // too many rows
	if _, err := b.Build(); err == nil {
		t.Error("extra StartRow: no error")
	}

	// Unsorted insertion within a row is fine: Build sorts.
	b = NewSparseBuilder(1, 4, 0)
	b.StartRow()
	b.Add(3, 3.0)
	b.Add(0, 1.0)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cols, vals := s.RowEntries(0); !slices.Equal(cols, []int{0, 3}) || !slices.Equal(vals, []float64{1, 3}) {
		t.Errorf("unsorted build: row columns %v, values %v", cols, vals)
	}
}
