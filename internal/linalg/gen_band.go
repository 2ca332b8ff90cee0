//go:build ignore

// gen_band writes band_gen.go, the straight-line band kernels for
// half-bandwidths 2…maxBW (solves and products from 3, the bw-2 ones
// being hand-written), every member from the one template below:
//
//	go generate ./internal/linalg
//
// Each factorization kernel computes the full band row by row, each entry
// subtracting the same products in the same ascending order as
// BandCholesky.factorizeEnvelope; each inverse kernel runs one column of
// the Takahashi recurrence with an inner product of fixed length, in the
// order of BandCholesky.inverseColumn.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
)

// maxBW is the widest half-bandwidth, and the longest inverse column,
// that gets a straight-line kernel.
const maxBW = 8

func main() {
	var b bytes.Buffer
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	p("// Code generated by gen_band.go; DO NOT EDIT.")
	p("")
	p("package linalg")
	p("")
	p(`import "math"`)
	p("")
	p("// maxKernelBW is the widest half-bandwidth with a straight-line")
	p("// factorization kernel, and the longest column with a straight-line")
	p("// inverse kernel.")
	p("const maxKernelBW = %d", maxBW)
	p("")
	p("// factorBand factors the whole packed band ad, n rows, into l and dinv")
	p("// with the straight-line kernel for half-bandwidth bw, 2 ≤ bw ≤")
	p("// maxKernelBW < n.")
	p("func factorBand(bw int, l, ad, dinv []float64, n int) error {")
	p("\tswitch bw {")
	for w := 2; w <= maxBW; w++ {
		p("\tcase %d:", w)
		p("\t\treturn factorBand%d(l, ad, dinv, n)", w)
	}
	p("\t}")
	p(`	panic("linalg: no straight-line factorization for this bandwidth")`)
	p("}")
	for w := 2; w <= maxBW; w++ {
		factorKernel(p, w)
	}
	inverseKernel(p)
	p("")
	p("// solveBand solves with the factor c, writing into x (which may alias")
	p("// b), with the row-length-unrolled kernel for half-bandwidth bw,")
	p("// 3 ≤ bw ≤ maxKernelBW < n.")
	dispatch(p, "solveBand", "c *BandCholesky, b, x []float64", "c, b, x")
	for w := 3; w <= maxBW; w++ {
		solveKernel(p, w)
	}
	p("")
	p("// mulVecSym adds A·x into y, zeroed, for the symmetric band matrix a")
	p("// with the straight-line kernel for half-bandwidth bw, 3 ≤ bw ≤")
	p("// maxKernelBW < n.")
	dispatch(p, "mulVecSym", "a *BandMatrix, x, y []float64", "a, x, y")
	for w := 3; w <= maxBW; w++ {
		mulVecKernel(p, w)
	}

	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatalf("formatting generated code: %v\n%s", err, b.Bytes())
	}
	if err := os.WriteFile("band_gen.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}

// factorKernel emits factorBand<w>: rows 0…w−1, which start at column 0,
// one by one with every index constant, then a loop over rows w…n−1 whose
// window p holds rows i−w … i, w+1 packed entries each.
func factorKernel(p func(string, ...any), w int) {
	w1 := w + 1
	p("")
	p("// factorBand%d is factorBand for half-bandwidth %d.", w, w)
	p("func factorBand%d(l, ad, dinv []float64, n int) error {", w)
	p("\thl, ha, hd := l[:%d:%d], ad[:%d:%d], dinv[:%d:%d]", w*w1, w*w1, w*w1, w*w1, w, w)
	for i := 0; i < w; i++ {
		p("\t{")
		factorRow(p, "\t\t", i, fmt.Sprint(i),
			func(m int) string { return fmt.Sprintf("ha[%d]", i*w1+m-i+w) },
			func(m, t int) string { return fmt.Sprintf("hl[%d]", m*w1+t-m+w) },
			func(m int) string { return fmt.Sprintf("hd[%d]", m) },
			func(m int) string { return fmt.Sprintf("hl[%d]", i*w1+m-i+w) },
			fmt.Sprintf("hd[%d]", i))
		p("\t}")
	}
	p("\tfor i := %d; i < n; i++ {", w)
	p("\t\tr := i * %d", w1)
	p("\t\ta := ad[r : r+%d : r+%d]", w1, w1)
	p("\t\tp := l[r-%d : r+%d : r+%d]", w*w1, w1, w1)
	p("\t\td := dinv[i-%d : i : i]", w)
	factorRow(p, "\t\t", w, "i",
		func(m int) string { return fmt.Sprintf("a[%d]", m) },
		func(m, t int) string { return fmt.Sprintf("p[%d]", m*w1+t-m+w) },
		func(m int) string { return fmt.Sprintf("d[%d]", m) },
		func(m int) string { return fmt.Sprintf("p[%d]", w*w1+m) },
		"dinv[i]")
	p("\t}")
	p("\treturn nil")
	p("}")
}

// factorRow emits the factorization of one row with entries 0…c−1 left
// of its diagonal (entry c). Entry m is v_m = (a(m) − Σ_{t<m} v_t·lm(m,
// t))·d(m), where lm(m, t) is entry t of the row entry m's column belongs
// to; the pivot is a(c) − Σ_t v_t², each product subtracted in ascending
// order as in factorizeEnvelope. store(m) is where entry m goes, store(c)
// the diagonal, dinv where its reciprocal goes and row the row's index
// in the pivot error.
func factorRow(p func(string, ...any), in string, c int, row string,
	a func(int) string, lm func(m, t int) string, d, store func(int) string, dinv string) {
	for m := 0; m < c; m++ {
		expr := a(m)
		for t := 0; t < m; t++ {
			expr += fmt.Sprintf(" - v%d*%s", t, lm(m, t))
		}
		if m > 0 {
			expr = "(" + expr + ")"
		}
		p("%sv%d := %s * %s", in, m, expr, d(m))
	}
	expr := a(c)
	for t := 0; t < c; t++ {
		expr += fmt.Sprintf(" - v%d*v%d", t, t)
	}
	p("%ss := %s", in, expr)
	for m := 0; m < c; m++ {
		p("%s%s = v%d", in, store(m), m)
	}
	p("%sif !(s > 0) {", in)
	p("%s\treturn pivotError(%s, s)", in, row)
	p("%s}", in)
	p("%sx := math.Sqrt(s)", in)
	p("%s%s = x", in, store(c))
	p("%s%s = 1 / x", in, dinv)
}

// inverseKernel emits inverseColumnShort: one switch over the column
// length m = 1…maxBW, each case holding column j of L in registers. Row
// i's run Z[i][j..j+m] is one slice: its first entry is the one written,
// mirrored into row j, the rest are read. The diagonal entry, the only
// one that starts from 1/L_jj, runs after the loop.
func inverseKernel(p func(string, ...any)) {
	p("")
	p("// inverseColumnShort runs column j of InverseBlock's recurrence on a")
	p("// size-row block (gj is the column in the matrix, dj = 1/L_jj) when its")
	p("// length m, the rows below j that reach it inside the block, is")
	p("// 1…maxKernelBW, and reports whether it did.")
	p("func inverseColumnShort(l, z []float64, bw, gj, j, m, size int, dj float64) bool {")
	p("\tw1 := bw + 1")
	p("\tswitch m {")
	for m := 1; m <= maxBW; m++ {
		p("\tcase %d:", m)
		for k := 0; k < m; k++ {
			p("\t\tc%d := l[(gj+%d)*w1+bw-%d]", k, k+1, k+1)
		}
		p("\t\tzj := z[j*size : j*size+size : j*size+size]")
		p("\t\tfor i := size - 1; i > j; i-- {")
		p("\t\t\tzi := z[i*size+j : i*size+j+%d : i*size+j+%d]", m+1, m+1)
		p("\t\t\ts := 0.0")
		for k := 0; k < m; k++ {
			p("\t\t\ts -= c%d * zi[%d]", k, k+1)
		}
		p("\t\t\tv := s * dj")
		p("\t\t\tzj[i] = v")
		p("\t\t\tzi[0] = v")
		p("\t\t}")
		p("\t\tzi := zj[j : j+%d : j+%d]", m+1, m+1)
		p("\t\ts := dj")
		for k := 0; k < m; k++ {
			p("\t\ts -= c%d * zi[%d]", k, k+1)
		}
		p("\t\tzi[0] = s * dj")
	}
	p("\tdefault:")
	p("\t\treturn false")
	p("\t}")
	p("\treturn true")
	p("}")
}

// dispatch emits name(bw int, params), a switch calling name<w>(args)
// for w = 3…maxBW.
func dispatch(p func(string, ...any), name, params, args string) {
	p("func %s(bw int, %s) {", name, params)
	p("\tswitch bw {")
	for w := 3; w <= maxBW; w++ {
		p("\tcase %d:", w)
		p("\t\t%s%d(%s)", name, w, args)
		p("\t\treturn")
	}
	p("\t}")
	p(`	panic("linalg: no %s kernel for this bandwidth")`, name)
	p("}")
}

// solveKernel emits solveBand<w>. The first w rows of the forward
// substitution and the last w of the back substitution, whose windows
// would leave the vectors, run the envelope loops; every other row reads
// a window of constant length. Forward, row i switches on its length
// i − first[i] and falls through to 1, subtracting its products from the
// leftmost column on; back, column i tests its length last[i] − i one
// entry at a time, subtracting from the topmost row down. Both orders are
// the envelope loop's, and neither reads a padding entry.
func solveKernel(p func(string, ...any), w int) {
	w1 := w + 1
	p("")
	p("// solveBand%d is solveBand for half-bandwidth %d.", w, w)
	p("func solveBand%d(c *BandCholesky, b, x []float64) {", w)
	p("\tn, l := c.n, c.l")
	p("\t// Cut to n so that the compiler proves every row index in bounds.")
	p("\tdinv, first, last := c.dinv[:n], c.env.first[:n], c.env.last[:n]")
	p("\tb, x = b[:n], x[:n]")
	p("\tc.forwardRows(b, x, 0, %d)", w)
	p("\tfor i := %d; i < n; i++ {", w)
	p("\t\tr := i * %d", w1)
	p("\t\tli := l[r : r+%d : r+%d]", w, w)
	p("\t\txv := x[i-%d : i : i]", w)
	p("\t\ts := b[i]")
	p("\t\tswitch i - first[i] {")
	for m := w; m >= 1; m-- {
		p("\t\tcase %d:", m)
		p("\t\t\ts -= li[%d] * xv[%d]", w-m, w-m)
		if m > 1 {
			p("\t\t\tfallthrough")
		}
	}
	p("\t\t}")
	p("\t\tx[i] = s * dinv[i]")
	p("\t}")
	p("\tc.backRows(x, n-%d, n)", w)
	p("\tfor i := n - %d; i >= 0; i-- {", w1)
	p("\t\t// Column i of L, L[i+t][i] at lc[t·%d], beside x[i+t].", w)
	p("\t\tr := i*%d + %d", w1, w)
	p("\t\tlc := l[r : r+%d : r+%d]", w*w+1, w*w+1)
	p("\t\txv := x[i : i+%d : i+%d]", w1, w1)
	p("\t\ts := xv[0]")
	p("\t\tm := last[i] - i")
	in := "\t\t"
	for t := 1; t <= w; t++ {
		p("%sif m >= %d {", in, t)
		in += "\t"
		p("%ss -= lc[%d] * xv[%d]", in, t*w, t)
	}
	for t := w; t >= 1; t-- {
		in = in[:len(in)-1]
		p("%s}", in)
	}
	p("\t\txv[0] = s * dinv[i]")
	p("\t}")
	p("}")
}

// mulVecKernel emits mulVecSym<w>: the first w rows, which start inside
// the band, through the generic loop, then rows w…n−1 over a window of
// w+1 entries, accumulating row i's sum in ascending column order and
// scattering each off-diagonal entry into its mirrored column as
// mulVecRows does. The sum starts at its first product rather than at +0
// plus it; the two differ only in the sign of a zero, which adding the
// sum onto y[i], still +0, erases.
func mulVecKernel(p func(string, ...any), w int) {
	w1 := w + 1
	p("")
	p("// mulVecSym%d is mulVecSym for half-bandwidth %d.", w, w)
	p("func mulVecSym%d(a *BandMatrix, x, y []float64) {", w)
	p("\tn, d := a.n, a.data")
	p("\ta.mulVecRows(x, y, 0, %d)", w)
	p("\tfor i := %d; i < n; i++ {", w)
	p("\t\tr := i * %d", w1)
	p("\t\tai := d[r : r+%d : r+%d]", w1, w1)
	p("\t\txv := x[i-%d : i+1 : i+1]", w)
	p("\t\tyv := y[i-%d : i+1 : i+1]", w)
	p("\t\txi := xv[%d]", w)
	p("\t\ts := ai[0] * xv[0]")
	p("\t\tyv[0] += ai[0] * xi")
	for k := 1; k < w; k++ {
		p("\t\ts += ai[%d] * xv[%d]", k, k)
		p("\t\tyv[%d] += ai[%d] * xi", k, k)
	}
	p("\t\ts += ai[%d] * xi", w)
	p("\t\tyv[%d] += s", w)
	p("\t}")
	p("}")
}
