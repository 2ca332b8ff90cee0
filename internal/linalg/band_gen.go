// Code generated by gen_band.go; DO NOT EDIT.

package linalg

import "math"

// maxKernelBW is the widest half-bandwidth with a straight-line
// factorization kernel, and the longest column with a straight-line
// inverse kernel.
const maxKernelBW = 8

// factorBand factors the whole packed band ad, n rows, into l and dinv
// with the straight-line kernel for half-bandwidth bw, 2 ≤ bw ≤
// maxKernelBW < n.
func factorBand(bw int, l, ad, dinv []float64, n int) error {
	switch bw {
	case 2:
		return factorBand2(l, ad, dinv, n)
	case 3:
		return factorBand3(l, ad, dinv, n)
	case 4:
		return factorBand4(l, ad, dinv, n)
	case 5:
		return factorBand5(l, ad, dinv, n)
	case 6:
		return factorBand6(l, ad, dinv, n)
	case 7:
		return factorBand7(l, ad, dinv, n)
	case 8:
		return factorBand8(l, ad, dinv, n)
	}
	panic("linalg: no straight-line factorization for this bandwidth")
}

// factorBand2 is factorBand for half-bandwidth 2.
func factorBand2(l, ad, dinv []float64, n int) error {
	hl, ha, hd := l[:6:6], ad[:6:6], dinv[:2:2]
	{
		s := ha[2]
		if !(s > 0) {
			return pivotError(0, s)
		}
		x := math.Sqrt(s)
		hl[2] = x
		hd[0] = 1 / x
	}
	{
		v0 := ha[4] * hd[0]
		s := ha[5] - v0*v0
		hl[4] = v0
		if !(s > 0) {
			return pivotError(1, s)
		}
		x := math.Sqrt(s)
		hl[5] = x
		hd[1] = 1 / x
	}
	for i := 2; i < n; i++ {
		r := i * 3
		a := ad[r : r+3 : r+3]
		p := l[r-6 : r+3 : r+3]
		d := dinv[i-2 : i : i]
		v0 := a[0] * d[0]
		v1 := (a[1] - v0*p[4]) * d[1]
		s := a[2] - v0*v0 - v1*v1
		p[6] = v0
		p[7] = v1
		if !(s > 0) {
			return pivotError(i, s)
		}
		x := math.Sqrt(s)
		p[8] = x
		dinv[i] = 1 / x
	}
	return nil
}

// factorBand3 is factorBand for half-bandwidth 3.
func factorBand3(l, ad, dinv []float64, n int) error {
	hl, ha, hd := l[:12:12], ad[:12:12], dinv[:3:3]
	{
		s := ha[3]
		if !(s > 0) {
			return pivotError(0, s)
		}
		x := math.Sqrt(s)
		hl[3] = x
		hd[0] = 1 / x
	}
	{
		v0 := ha[6] * hd[0]
		s := ha[7] - v0*v0
		hl[6] = v0
		if !(s > 0) {
			return pivotError(1, s)
		}
		x := math.Sqrt(s)
		hl[7] = x
		hd[1] = 1 / x
	}
	{
		v0 := ha[9] * hd[0]
		v1 := (ha[10] - v0*hl[6]) * hd[1]
		s := ha[11] - v0*v0 - v1*v1
		hl[9] = v0
		hl[10] = v1
		if !(s > 0) {
			return pivotError(2, s)
		}
		x := math.Sqrt(s)
		hl[11] = x
		hd[2] = 1 / x
	}
	for i := 3; i < n; i++ {
		r := i * 4
		a := ad[r : r+4 : r+4]
		p := l[r-12 : r+4 : r+4]
		d := dinv[i-3 : i : i]
		v0 := a[0] * d[0]
		v1 := (a[1] - v0*p[6]) * d[1]
		v2 := (a[2] - v0*p[9] - v1*p[10]) * d[2]
		s := a[3] - v0*v0 - v1*v1 - v2*v2
		p[12] = v0
		p[13] = v1
		p[14] = v2
		if !(s > 0) {
			return pivotError(i, s)
		}
		x := math.Sqrt(s)
		p[15] = x
		dinv[i] = 1 / x
	}
	return nil
}

// factorBand4 is factorBand for half-bandwidth 4.
func factorBand4(l, ad, dinv []float64, n int) error {
	hl, ha, hd := l[:20:20], ad[:20:20], dinv[:4:4]
	{
		s := ha[4]
		if !(s > 0) {
			return pivotError(0, s)
		}
		x := math.Sqrt(s)
		hl[4] = x
		hd[0] = 1 / x
	}
	{
		v0 := ha[8] * hd[0]
		s := ha[9] - v0*v0
		hl[8] = v0
		if !(s > 0) {
			return pivotError(1, s)
		}
		x := math.Sqrt(s)
		hl[9] = x
		hd[1] = 1 / x
	}
	{
		v0 := ha[12] * hd[0]
		v1 := (ha[13] - v0*hl[8]) * hd[1]
		s := ha[14] - v0*v0 - v1*v1
		hl[12] = v0
		hl[13] = v1
		if !(s > 0) {
			return pivotError(2, s)
		}
		x := math.Sqrt(s)
		hl[14] = x
		hd[2] = 1 / x
	}
	{
		v0 := ha[16] * hd[0]
		v1 := (ha[17] - v0*hl[8]) * hd[1]
		v2 := (ha[18] - v0*hl[12] - v1*hl[13]) * hd[2]
		s := ha[19] - v0*v0 - v1*v1 - v2*v2
		hl[16] = v0
		hl[17] = v1
		hl[18] = v2
		if !(s > 0) {
			return pivotError(3, s)
		}
		x := math.Sqrt(s)
		hl[19] = x
		hd[3] = 1 / x
	}
	for i := 4; i < n; i++ {
		r := i * 5
		a := ad[r : r+5 : r+5]
		p := l[r-20 : r+5 : r+5]
		d := dinv[i-4 : i : i]
		v0 := a[0] * d[0]
		v1 := (a[1] - v0*p[8]) * d[1]
		v2 := (a[2] - v0*p[12] - v1*p[13]) * d[2]
		v3 := (a[3] - v0*p[16] - v1*p[17] - v2*p[18]) * d[3]
		s := a[4] - v0*v0 - v1*v1 - v2*v2 - v3*v3
		p[20] = v0
		p[21] = v1
		p[22] = v2
		p[23] = v3
		if !(s > 0) {
			return pivotError(i, s)
		}
		x := math.Sqrt(s)
		p[24] = x
		dinv[i] = 1 / x
	}
	return nil
}

// factorBand5 is factorBand for half-bandwidth 5.
func factorBand5(l, ad, dinv []float64, n int) error {
	hl, ha, hd := l[:30:30], ad[:30:30], dinv[:5:5]
	{
		s := ha[5]
		if !(s > 0) {
			return pivotError(0, s)
		}
		x := math.Sqrt(s)
		hl[5] = x
		hd[0] = 1 / x
	}
	{
		v0 := ha[10] * hd[0]
		s := ha[11] - v0*v0
		hl[10] = v0
		if !(s > 0) {
			return pivotError(1, s)
		}
		x := math.Sqrt(s)
		hl[11] = x
		hd[1] = 1 / x
	}
	{
		v0 := ha[15] * hd[0]
		v1 := (ha[16] - v0*hl[10]) * hd[1]
		s := ha[17] - v0*v0 - v1*v1
		hl[15] = v0
		hl[16] = v1
		if !(s > 0) {
			return pivotError(2, s)
		}
		x := math.Sqrt(s)
		hl[17] = x
		hd[2] = 1 / x
	}
	{
		v0 := ha[20] * hd[0]
		v1 := (ha[21] - v0*hl[10]) * hd[1]
		v2 := (ha[22] - v0*hl[15] - v1*hl[16]) * hd[2]
		s := ha[23] - v0*v0 - v1*v1 - v2*v2
		hl[20] = v0
		hl[21] = v1
		hl[22] = v2
		if !(s > 0) {
			return pivotError(3, s)
		}
		x := math.Sqrt(s)
		hl[23] = x
		hd[3] = 1 / x
	}
	{
		v0 := ha[25] * hd[0]
		v1 := (ha[26] - v0*hl[10]) * hd[1]
		v2 := (ha[27] - v0*hl[15] - v1*hl[16]) * hd[2]
		v3 := (ha[28] - v0*hl[20] - v1*hl[21] - v2*hl[22]) * hd[3]
		s := ha[29] - v0*v0 - v1*v1 - v2*v2 - v3*v3
		hl[25] = v0
		hl[26] = v1
		hl[27] = v2
		hl[28] = v3
		if !(s > 0) {
			return pivotError(4, s)
		}
		x := math.Sqrt(s)
		hl[29] = x
		hd[4] = 1 / x
	}
	for i := 5; i < n; i++ {
		r := i * 6
		a := ad[r : r+6 : r+6]
		p := l[r-30 : r+6 : r+6]
		d := dinv[i-5 : i : i]
		v0 := a[0] * d[0]
		v1 := (a[1] - v0*p[10]) * d[1]
		v2 := (a[2] - v0*p[15] - v1*p[16]) * d[2]
		v3 := (a[3] - v0*p[20] - v1*p[21] - v2*p[22]) * d[3]
		v4 := (a[4] - v0*p[25] - v1*p[26] - v2*p[27] - v3*p[28]) * d[4]
		s := a[5] - v0*v0 - v1*v1 - v2*v2 - v3*v3 - v4*v4
		p[30] = v0
		p[31] = v1
		p[32] = v2
		p[33] = v3
		p[34] = v4
		if !(s > 0) {
			return pivotError(i, s)
		}
		x := math.Sqrt(s)
		p[35] = x
		dinv[i] = 1 / x
	}
	return nil
}

// factorBand6 is factorBand for half-bandwidth 6.
func factorBand6(l, ad, dinv []float64, n int) error {
	hl, ha, hd := l[:42:42], ad[:42:42], dinv[:6:6]
	{
		s := ha[6]
		if !(s > 0) {
			return pivotError(0, s)
		}
		x := math.Sqrt(s)
		hl[6] = x
		hd[0] = 1 / x
	}
	{
		v0 := ha[12] * hd[0]
		s := ha[13] - v0*v0
		hl[12] = v0
		if !(s > 0) {
			return pivotError(1, s)
		}
		x := math.Sqrt(s)
		hl[13] = x
		hd[1] = 1 / x
	}
	{
		v0 := ha[18] * hd[0]
		v1 := (ha[19] - v0*hl[12]) * hd[1]
		s := ha[20] - v0*v0 - v1*v1
		hl[18] = v0
		hl[19] = v1
		if !(s > 0) {
			return pivotError(2, s)
		}
		x := math.Sqrt(s)
		hl[20] = x
		hd[2] = 1 / x
	}
	{
		v0 := ha[24] * hd[0]
		v1 := (ha[25] - v0*hl[12]) * hd[1]
		v2 := (ha[26] - v0*hl[18] - v1*hl[19]) * hd[2]
		s := ha[27] - v0*v0 - v1*v1 - v2*v2
		hl[24] = v0
		hl[25] = v1
		hl[26] = v2
		if !(s > 0) {
			return pivotError(3, s)
		}
		x := math.Sqrt(s)
		hl[27] = x
		hd[3] = 1 / x
	}
	{
		v0 := ha[30] * hd[0]
		v1 := (ha[31] - v0*hl[12]) * hd[1]
		v2 := (ha[32] - v0*hl[18] - v1*hl[19]) * hd[2]
		v3 := (ha[33] - v0*hl[24] - v1*hl[25] - v2*hl[26]) * hd[3]
		s := ha[34] - v0*v0 - v1*v1 - v2*v2 - v3*v3
		hl[30] = v0
		hl[31] = v1
		hl[32] = v2
		hl[33] = v3
		if !(s > 0) {
			return pivotError(4, s)
		}
		x := math.Sqrt(s)
		hl[34] = x
		hd[4] = 1 / x
	}
	{
		v0 := ha[36] * hd[0]
		v1 := (ha[37] - v0*hl[12]) * hd[1]
		v2 := (ha[38] - v0*hl[18] - v1*hl[19]) * hd[2]
		v3 := (ha[39] - v0*hl[24] - v1*hl[25] - v2*hl[26]) * hd[3]
		v4 := (ha[40] - v0*hl[30] - v1*hl[31] - v2*hl[32] - v3*hl[33]) * hd[4]
		s := ha[41] - v0*v0 - v1*v1 - v2*v2 - v3*v3 - v4*v4
		hl[36] = v0
		hl[37] = v1
		hl[38] = v2
		hl[39] = v3
		hl[40] = v4
		if !(s > 0) {
			return pivotError(5, s)
		}
		x := math.Sqrt(s)
		hl[41] = x
		hd[5] = 1 / x
	}
	for i := 6; i < n; i++ {
		r := i * 7
		a := ad[r : r+7 : r+7]
		p := l[r-42 : r+7 : r+7]
		d := dinv[i-6 : i : i]
		v0 := a[0] * d[0]
		v1 := (a[1] - v0*p[12]) * d[1]
		v2 := (a[2] - v0*p[18] - v1*p[19]) * d[2]
		v3 := (a[3] - v0*p[24] - v1*p[25] - v2*p[26]) * d[3]
		v4 := (a[4] - v0*p[30] - v1*p[31] - v2*p[32] - v3*p[33]) * d[4]
		v5 := (a[5] - v0*p[36] - v1*p[37] - v2*p[38] - v3*p[39] - v4*p[40]) * d[5]
		s := a[6] - v0*v0 - v1*v1 - v2*v2 - v3*v3 - v4*v4 - v5*v5
		p[42] = v0
		p[43] = v1
		p[44] = v2
		p[45] = v3
		p[46] = v4
		p[47] = v5
		if !(s > 0) {
			return pivotError(i, s)
		}
		x := math.Sqrt(s)
		p[48] = x
		dinv[i] = 1 / x
	}
	return nil
}

// factorBand7 is factorBand for half-bandwidth 7.
func factorBand7(l, ad, dinv []float64, n int) error {
	hl, ha, hd := l[:56:56], ad[:56:56], dinv[:7:7]
	{
		s := ha[7]
		if !(s > 0) {
			return pivotError(0, s)
		}
		x := math.Sqrt(s)
		hl[7] = x
		hd[0] = 1 / x
	}
	{
		v0 := ha[14] * hd[0]
		s := ha[15] - v0*v0
		hl[14] = v0
		if !(s > 0) {
			return pivotError(1, s)
		}
		x := math.Sqrt(s)
		hl[15] = x
		hd[1] = 1 / x
	}
	{
		v0 := ha[21] * hd[0]
		v1 := (ha[22] - v0*hl[14]) * hd[1]
		s := ha[23] - v0*v0 - v1*v1
		hl[21] = v0
		hl[22] = v1
		if !(s > 0) {
			return pivotError(2, s)
		}
		x := math.Sqrt(s)
		hl[23] = x
		hd[2] = 1 / x
	}
	{
		v0 := ha[28] * hd[0]
		v1 := (ha[29] - v0*hl[14]) * hd[1]
		v2 := (ha[30] - v0*hl[21] - v1*hl[22]) * hd[2]
		s := ha[31] - v0*v0 - v1*v1 - v2*v2
		hl[28] = v0
		hl[29] = v1
		hl[30] = v2
		if !(s > 0) {
			return pivotError(3, s)
		}
		x := math.Sqrt(s)
		hl[31] = x
		hd[3] = 1 / x
	}
	{
		v0 := ha[35] * hd[0]
		v1 := (ha[36] - v0*hl[14]) * hd[1]
		v2 := (ha[37] - v0*hl[21] - v1*hl[22]) * hd[2]
		v3 := (ha[38] - v0*hl[28] - v1*hl[29] - v2*hl[30]) * hd[3]
		s := ha[39] - v0*v0 - v1*v1 - v2*v2 - v3*v3
		hl[35] = v0
		hl[36] = v1
		hl[37] = v2
		hl[38] = v3
		if !(s > 0) {
			return pivotError(4, s)
		}
		x := math.Sqrt(s)
		hl[39] = x
		hd[4] = 1 / x
	}
	{
		v0 := ha[42] * hd[0]
		v1 := (ha[43] - v0*hl[14]) * hd[1]
		v2 := (ha[44] - v0*hl[21] - v1*hl[22]) * hd[2]
		v3 := (ha[45] - v0*hl[28] - v1*hl[29] - v2*hl[30]) * hd[3]
		v4 := (ha[46] - v0*hl[35] - v1*hl[36] - v2*hl[37] - v3*hl[38]) * hd[4]
		s := ha[47] - v0*v0 - v1*v1 - v2*v2 - v3*v3 - v4*v4
		hl[42] = v0
		hl[43] = v1
		hl[44] = v2
		hl[45] = v3
		hl[46] = v4
		if !(s > 0) {
			return pivotError(5, s)
		}
		x := math.Sqrt(s)
		hl[47] = x
		hd[5] = 1 / x
	}
	{
		v0 := ha[49] * hd[0]
		v1 := (ha[50] - v0*hl[14]) * hd[1]
		v2 := (ha[51] - v0*hl[21] - v1*hl[22]) * hd[2]
		v3 := (ha[52] - v0*hl[28] - v1*hl[29] - v2*hl[30]) * hd[3]
		v4 := (ha[53] - v0*hl[35] - v1*hl[36] - v2*hl[37] - v3*hl[38]) * hd[4]
		v5 := (ha[54] - v0*hl[42] - v1*hl[43] - v2*hl[44] - v3*hl[45] - v4*hl[46]) * hd[5]
		s := ha[55] - v0*v0 - v1*v1 - v2*v2 - v3*v3 - v4*v4 - v5*v5
		hl[49] = v0
		hl[50] = v1
		hl[51] = v2
		hl[52] = v3
		hl[53] = v4
		hl[54] = v5
		if !(s > 0) {
			return pivotError(6, s)
		}
		x := math.Sqrt(s)
		hl[55] = x
		hd[6] = 1 / x
	}
	for i := 7; i < n; i++ {
		r := i * 8
		a := ad[r : r+8 : r+8]
		p := l[r-56 : r+8 : r+8]
		d := dinv[i-7 : i : i]
		v0 := a[0] * d[0]
		v1 := (a[1] - v0*p[14]) * d[1]
		v2 := (a[2] - v0*p[21] - v1*p[22]) * d[2]
		v3 := (a[3] - v0*p[28] - v1*p[29] - v2*p[30]) * d[3]
		v4 := (a[4] - v0*p[35] - v1*p[36] - v2*p[37] - v3*p[38]) * d[4]
		v5 := (a[5] - v0*p[42] - v1*p[43] - v2*p[44] - v3*p[45] - v4*p[46]) * d[5]
		v6 := (a[6] - v0*p[49] - v1*p[50] - v2*p[51] - v3*p[52] - v4*p[53] - v5*p[54]) * d[6]
		s := a[7] - v0*v0 - v1*v1 - v2*v2 - v3*v3 - v4*v4 - v5*v5 - v6*v6
		p[56] = v0
		p[57] = v1
		p[58] = v2
		p[59] = v3
		p[60] = v4
		p[61] = v5
		p[62] = v6
		if !(s > 0) {
			return pivotError(i, s)
		}
		x := math.Sqrt(s)
		p[63] = x
		dinv[i] = 1 / x
	}
	return nil
}

// factorBand8 is factorBand for half-bandwidth 8.
func factorBand8(l, ad, dinv []float64, n int) error {
	hl, ha, hd := l[:72:72], ad[:72:72], dinv[:8:8]
	{
		s := ha[8]
		if !(s > 0) {
			return pivotError(0, s)
		}
		x := math.Sqrt(s)
		hl[8] = x
		hd[0] = 1 / x
	}
	{
		v0 := ha[16] * hd[0]
		s := ha[17] - v0*v0
		hl[16] = v0
		if !(s > 0) {
			return pivotError(1, s)
		}
		x := math.Sqrt(s)
		hl[17] = x
		hd[1] = 1 / x
	}
	{
		v0 := ha[24] * hd[0]
		v1 := (ha[25] - v0*hl[16]) * hd[1]
		s := ha[26] - v0*v0 - v1*v1
		hl[24] = v0
		hl[25] = v1
		if !(s > 0) {
			return pivotError(2, s)
		}
		x := math.Sqrt(s)
		hl[26] = x
		hd[2] = 1 / x
	}
	{
		v0 := ha[32] * hd[0]
		v1 := (ha[33] - v0*hl[16]) * hd[1]
		v2 := (ha[34] - v0*hl[24] - v1*hl[25]) * hd[2]
		s := ha[35] - v0*v0 - v1*v1 - v2*v2
		hl[32] = v0
		hl[33] = v1
		hl[34] = v2
		if !(s > 0) {
			return pivotError(3, s)
		}
		x := math.Sqrt(s)
		hl[35] = x
		hd[3] = 1 / x
	}
	{
		v0 := ha[40] * hd[0]
		v1 := (ha[41] - v0*hl[16]) * hd[1]
		v2 := (ha[42] - v0*hl[24] - v1*hl[25]) * hd[2]
		v3 := (ha[43] - v0*hl[32] - v1*hl[33] - v2*hl[34]) * hd[3]
		s := ha[44] - v0*v0 - v1*v1 - v2*v2 - v3*v3
		hl[40] = v0
		hl[41] = v1
		hl[42] = v2
		hl[43] = v3
		if !(s > 0) {
			return pivotError(4, s)
		}
		x := math.Sqrt(s)
		hl[44] = x
		hd[4] = 1 / x
	}
	{
		v0 := ha[48] * hd[0]
		v1 := (ha[49] - v0*hl[16]) * hd[1]
		v2 := (ha[50] - v0*hl[24] - v1*hl[25]) * hd[2]
		v3 := (ha[51] - v0*hl[32] - v1*hl[33] - v2*hl[34]) * hd[3]
		v4 := (ha[52] - v0*hl[40] - v1*hl[41] - v2*hl[42] - v3*hl[43]) * hd[4]
		s := ha[53] - v0*v0 - v1*v1 - v2*v2 - v3*v3 - v4*v4
		hl[48] = v0
		hl[49] = v1
		hl[50] = v2
		hl[51] = v3
		hl[52] = v4
		if !(s > 0) {
			return pivotError(5, s)
		}
		x := math.Sqrt(s)
		hl[53] = x
		hd[5] = 1 / x
	}
	{
		v0 := ha[56] * hd[0]
		v1 := (ha[57] - v0*hl[16]) * hd[1]
		v2 := (ha[58] - v0*hl[24] - v1*hl[25]) * hd[2]
		v3 := (ha[59] - v0*hl[32] - v1*hl[33] - v2*hl[34]) * hd[3]
		v4 := (ha[60] - v0*hl[40] - v1*hl[41] - v2*hl[42] - v3*hl[43]) * hd[4]
		v5 := (ha[61] - v0*hl[48] - v1*hl[49] - v2*hl[50] - v3*hl[51] - v4*hl[52]) * hd[5]
		s := ha[62] - v0*v0 - v1*v1 - v2*v2 - v3*v3 - v4*v4 - v5*v5
		hl[56] = v0
		hl[57] = v1
		hl[58] = v2
		hl[59] = v3
		hl[60] = v4
		hl[61] = v5
		if !(s > 0) {
			return pivotError(6, s)
		}
		x := math.Sqrt(s)
		hl[62] = x
		hd[6] = 1 / x
	}
	{
		v0 := ha[64] * hd[0]
		v1 := (ha[65] - v0*hl[16]) * hd[1]
		v2 := (ha[66] - v0*hl[24] - v1*hl[25]) * hd[2]
		v3 := (ha[67] - v0*hl[32] - v1*hl[33] - v2*hl[34]) * hd[3]
		v4 := (ha[68] - v0*hl[40] - v1*hl[41] - v2*hl[42] - v3*hl[43]) * hd[4]
		v5 := (ha[69] - v0*hl[48] - v1*hl[49] - v2*hl[50] - v3*hl[51] - v4*hl[52]) * hd[5]
		v6 := (ha[70] - v0*hl[56] - v1*hl[57] - v2*hl[58] - v3*hl[59] - v4*hl[60] - v5*hl[61]) * hd[6]
		s := ha[71] - v0*v0 - v1*v1 - v2*v2 - v3*v3 - v4*v4 - v5*v5 - v6*v6
		hl[64] = v0
		hl[65] = v1
		hl[66] = v2
		hl[67] = v3
		hl[68] = v4
		hl[69] = v5
		hl[70] = v6
		if !(s > 0) {
			return pivotError(7, s)
		}
		x := math.Sqrt(s)
		hl[71] = x
		hd[7] = 1 / x
	}
	for i := 8; i < n; i++ {
		r := i * 9
		a := ad[r : r+9 : r+9]
		p := l[r-72 : r+9 : r+9]
		d := dinv[i-8 : i : i]
		v0 := a[0] * d[0]
		v1 := (a[1] - v0*p[16]) * d[1]
		v2 := (a[2] - v0*p[24] - v1*p[25]) * d[2]
		v3 := (a[3] - v0*p[32] - v1*p[33] - v2*p[34]) * d[3]
		v4 := (a[4] - v0*p[40] - v1*p[41] - v2*p[42] - v3*p[43]) * d[4]
		v5 := (a[5] - v0*p[48] - v1*p[49] - v2*p[50] - v3*p[51] - v4*p[52]) * d[5]
		v6 := (a[6] - v0*p[56] - v1*p[57] - v2*p[58] - v3*p[59] - v4*p[60] - v5*p[61]) * d[6]
		v7 := (a[7] - v0*p[64] - v1*p[65] - v2*p[66] - v3*p[67] - v4*p[68] - v5*p[69] - v6*p[70]) * d[7]
		s := a[8] - v0*v0 - v1*v1 - v2*v2 - v3*v3 - v4*v4 - v5*v5 - v6*v6 - v7*v7
		p[72] = v0
		p[73] = v1
		p[74] = v2
		p[75] = v3
		p[76] = v4
		p[77] = v5
		p[78] = v6
		p[79] = v7
		if !(s > 0) {
			return pivotError(i, s)
		}
		x := math.Sqrt(s)
		p[80] = x
		dinv[i] = 1 / x
	}
	return nil
}

// inverseColumnShort runs column j of InverseBlock's recurrence on a
// size-row block (gj is the column in the matrix, dj = 1/L_jj) when its
// length m, the rows below j that reach it inside the block, is
// 1…maxKernelBW, and reports whether it did.
func inverseColumnShort(l, z []float64, bw, gj, j, m, size int, dj float64) bool {
	w1 := bw + 1
	switch m {
	case 1:
		c0 := l[(gj+1)*w1+bw-1]
		zj := z[j*size : j*size+size : j*size+size]
		for i := size - 1; i > j; i-- {
			zi := z[i*size+j : i*size+j+2 : i*size+j+2]
			s := 0.0
			s -= c0 * zi[1]
			v := s * dj
			zj[i] = v
			zi[0] = v
		}
		zi := zj[j : j+2 : j+2]
		s := dj
		s -= c0 * zi[1]
		zi[0] = s * dj
	case 2:
		c0 := l[(gj+1)*w1+bw-1]
		c1 := l[(gj+2)*w1+bw-2]
		zj := z[j*size : j*size+size : j*size+size]
		for i := size - 1; i > j; i-- {
			zi := z[i*size+j : i*size+j+3 : i*size+j+3]
			s := 0.0
			s -= c0 * zi[1]
			s -= c1 * zi[2]
			v := s * dj
			zj[i] = v
			zi[0] = v
		}
		zi := zj[j : j+3 : j+3]
		s := dj
		s -= c0 * zi[1]
		s -= c1 * zi[2]
		zi[0] = s * dj
	case 3:
		c0 := l[(gj+1)*w1+bw-1]
		c1 := l[(gj+2)*w1+bw-2]
		c2 := l[(gj+3)*w1+bw-3]
		zj := z[j*size : j*size+size : j*size+size]
		for i := size - 1; i > j; i-- {
			zi := z[i*size+j : i*size+j+4 : i*size+j+4]
			s := 0.0
			s -= c0 * zi[1]
			s -= c1 * zi[2]
			s -= c2 * zi[3]
			v := s * dj
			zj[i] = v
			zi[0] = v
		}
		zi := zj[j : j+4 : j+4]
		s := dj
		s -= c0 * zi[1]
		s -= c1 * zi[2]
		s -= c2 * zi[3]
		zi[0] = s * dj
	case 4:
		c0 := l[(gj+1)*w1+bw-1]
		c1 := l[(gj+2)*w1+bw-2]
		c2 := l[(gj+3)*w1+bw-3]
		c3 := l[(gj+4)*w1+bw-4]
		zj := z[j*size : j*size+size : j*size+size]
		for i := size - 1; i > j; i-- {
			zi := z[i*size+j : i*size+j+5 : i*size+j+5]
			s := 0.0
			s -= c0 * zi[1]
			s -= c1 * zi[2]
			s -= c2 * zi[3]
			s -= c3 * zi[4]
			v := s * dj
			zj[i] = v
			zi[0] = v
		}
		zi := zj[j : j+5 : j+5]
		s := dj
		s -= c0 * zi[1]
		s -= c1 * zi[2]
		s -= c2 * zi[3]
		s -= c3 * zi[4]
		zi[0] = s * dj
	case 5:
		c0 := l[(gj+1)*w1+bw-1]
		c1 := l[(gj+2)*w1+bw-2]
		c2 := l[(gj+3)*w1+bw-3]
		c3 := l[(gj+4)*w1+bw-4]
		c4 := l[(gj+5)*w1+bw-5]
		zj := z[j*size : j*size+size : j*size+size]
		for i := size - 1; i > j; i-- {
			zi := z[i*size+j : i*size+j+6 : i*size+j+6]
			s := 0.0
			s -= c0 * zi[1]
			s -= c1 * zi[2]
			s -= c2 * zi[3]
			s -= c3 * zi[4]
			s -= c4 * zi[5]
			v := s * dj
			zj[i] = v
			zi[0] = v
		}
		zi := zj[j : j+6 : j+6]
		s := dj
		s -= c0 * zi[1]
		s -= c1 * zi[2]
		s -= c2 * zi[3]
		s -= c3 * zi[4]
		s -= c4 * zi[5]
		zi[0] = s * dj
	case 6:
		c0 := l[(gj+1)*w1+bw-1]
		c1 := l[(gj+2)*w1+bw-2]
		c2 := l[(gj+3)*w1+bw-3]
		c3 := l[(gj+4)*w1+bw-4]
		c4 := l[(gj+5)*w1+bw-5]
		c5 := l[(gj+6)*w1+bw-6]
		zj := z[j*size : j*size+size : j*size+size]
		for i := size - 1; i > j; i-- {
			zi := z[i*size+j : i*size+j+7 : i*size+j+7]
			s := 0.0
			s -= c0 * zi[1]
			s -= c1 * zi[2]
			s -= c2 * zi[3]
			s -= c3 * zi[4]
			s -= c4 * zi[5]
			s -= c5 * zi[6]
			v := s * dj
			zj[i] = v
			zi[0] = v
		}
		zi := zj[j : j+7 : j+7]
		s := dj
		s -= c0 * zi[1]
		s -= c1 * zi[2]
		s -= c2 * zi[3]
		s -= c3 * zi[4]
		s -= c4 * zi[5]
		s -= c5 * zi[6]
		zi[0] = s * dj
	case 7:
		c0 := l[(gj+1)*w1+bw-1]
		c1 := l[(gj+2)*w1+bw-2]
		c2 := l[(gj+3)*w1+bw-3]
		c3 := l[(gj+4)*w1+bw-4]
		c4 := l[(gj+5)*w1+bw-5]
		c5 := l[(gj+6)*w1+bw-6]
		c6 := l[(gj+7)*w1+bw-7]
		zj := z[j*size : j*size+size : j*size+size]
		for i := size - 1; i > j; i-- {
			zi := z[i*size+j : i*size+j+8 : i*size+j+8]
			s := 0.0
			s -= c0 * zi[1]
			s -= c1 * zi[2]
			s -= c2 * zi[3]
			s -= c3 * zi[4]
			s -= c4 * zi[5]
			s -= c5 * zi[6]
			s -= c6 * zi[7]
			v := s * dj
			zj[i] = v
			zi[0] = v
		}
		zi := zj[j : j+8 : j+8]
		s := dj
		s -= c0 * zi[1]
		s -= c1 * zi[2]
		s -= c2 * zi[3]
		s -= c3 * zi[4]
		s -= c4 * zi[5]
		s -= c5 * zi[6]
		s -= c6 * zi[7]
		zi[0] = s * dj
	case 8:
		c0 := l[(gj+1)*w1+bw-1]
		c1 := l[(gj+2)*w1+bw-2]
		c2 := l[(gj+3)*w1+bw-3]
		c3 := l[(gj+4)*w1+bw-4]
		c4 := l[(gj+5)*w1+bw-5]
		c5 := l[(gj+6)*w1+bw-6]
		c6 := l[(gj+7)*w1+bw-7]
		c7 := l[(gj+8)*w1+bw-8]
		zj := z[j*size : j*size+size : j*size+size]
		for i := size - 1; i > j; i-- {
			zi := z[i*size+j : i*size+j+9 : i*size+j+9]
			s := 0.0
			s -= c0 * zi[1]
			s -= c1 * zi[2]
			s -= c2 * zi[3]
			s -= c3 * zi[4]
			s -= c4 * zi[5]
			s -= c5 * zi[6]
			s -= c6 * zi[7]
			s -= c7 * zi[8]
			v := s * dj
			zj[i] = v
			zi[0] = v
		}
		zi := zj[j : j+9 : j+9]
		s := dj
		s -= c0 * zi[1]
		s -= c1 * zi[2]
		s -= c2 * zi[3]
		s -= c3 * zi[4]
		s -= c4 * zi[5]
		s -= c5 * zi[6]
		s -= c6 * zi[7]
		s -= c7 * zi[8]
		zi[0] = s * dj
	default:
		return false
	}
	return true
}

// solveBand solves with the factor c, writing into x (which may alias
// b), with the row-length-unrolled kernel for half-bandwidth bw,
// 3 ≤ bw ≤ maxKernelBW < n.
func solveBand(bw int, c *BandCholesky, b, x []float64) {
	switch bw {
	case 3:
		solveBand3(c, b, x)
		return
	case 4:
		solveBand4(c, b, x)
		return
	case 5:
		solveBand5(c, b, x)
		return
	case 6:
		solveBand6(c, b, x)
		return
	case 7:
		solveBand7(c, b, x)
		return
	case 8:
		solveBand8(c, b, x)
		return
	}
	panic("linalg: no solveBand kernel for this bandwidth")
}

// solveBand3 is solveBand for half-bandwidth 3.
func solveBand3(c *BandCholesky, b, x []float64) {
	n, l := c.n, c.l
	// Cut to n so that the compiler proves every row index in bounds.
	dinv, first, last := c.dinv[:n], c.env.first[:n], c.env.last[:n]
	b, x = b[:n], x[:n]
	c.forwardRows(b, x, 0, 3)
	for i := 3; i < n; i++ {
		r := i * 4
		li := l[r : r+3 : r+3]
		xv := x[i-3 : i : i]
		s := b[i]
		switch i - first[i] {
		case 3:
			s -= li[0] * xv[0]
			fallthrough
		case 2:
			s -= li[1] * xv[1]
			fallthrough
		case 1:
			s -= li[2] * xv[2]
		}
		x[i] = s * dinv[i]
	}
	c.backRows(x, n-3, n)
	for i := n - 4; i >= 0; i-- {
		// Column i of L, L[i+t][i] at lc[t·3], beside x[i+t].
		r := i*4 + 3
		lc := l[r : r+10 : r+10]
		xv := x[i : i+4 : i+4]
		s := xv[0]
		m := last[i] - i
		if m >= 1 {
			s -= lc[3] * xv[1]
			if m >= 2 {
				s -= lc[6] * xv[2]
				if m >= 3 {
					s -= lc[9] * xv[3]
				}
			}
		}
		xv[0] = s * dinv[i]
	}
}

// solveBand4 is solveBand for half-bandwidth 4.
func solveBand4(c *BandCholesky, b, x []float64) {
	n, l := c.n, c.l
	// Cut to n so that the compiler proves every row index in bounds.
	dinv, first, last := c.dinv[:n], c.env.first[:n], c.env.last[:n]
	b, x = b[:n], x[:n]
	c.forwardRows(b, x, 0, 4)
	for i := 4; i < n; i++ {
		r := i * 5
		li := l[r : r+4 : r+4]
		xv := x[i-4 : i : i]
		s := b[i]
		switch i - first[i] {
		case 4:
			s -= li[0] * xv[0]
			fallthrough
		case 3:
			s -= li[1] * xv[1]
			fallthrough
		case 2:
			s -= li[2] * xv[2]
			fallthrough
		case 1:
			s -= li[3] * xv[3]
		}
		x[i] = s * dinv[i]
	}
	c.backRows(x, n-4, n)
	for i := n - 5; i >= 0; i-- {
		// Column i of L, L[i+t][i] at lc[t·4], beside x[i+t].
		r := i*5 + 4
		lc := l[r : r+17 : r+17]
		xv := x[i : i+5 : i+5]
		s := xv[0]
		m := last[i] - i
		if m >= 1 {
			s -= lc[4] * xv[1]
			if m >= 2 {
				s -= lc[8] * xv[2]
				if m >= 3 {
					s -= lc[12] * xv[3]
					if m >= 4 {
						s -= lc[16] * xv[4]
					}
				}
			}
		}
		xv[0] = s * dinv[i]
	}
}

// solveBand5 is solveBand for half-bandwidth 5.
func solveBand5(c *BandCholesky, b, x []float64) {
	n, l := c.n, c.l
	// Cut to n so that the compiler proves every row index in bounds.
	dinv, first, last := c.dinv[:n], c.env.first[:n], c.env.last[:n]
	b, x = b[:n], x[:n]
	c.forwardRows(b, x, 0, 5)
	for i := 5; i < n; i++ {
		r := i * 6
		li := l[r : r+5 : r+5]
		xv := x[i-5 : i : i]
		s := b[i]
		switch i - first[i] {
		case 5:
			s -= li[0] * xv[0]
			fallthrough
		case 4:
			s -= li[1] * xv[1]
			fallthrough
		case 3:
			s -= li[2] * xv[2]
			fallthrough
		case 2:
			s -= li[3] * xv[3]
			fallthrough
		case 1:
			s -= li[4] * xv[4]
		}
		x[i] = s * dinv[i]
	}
	c.backRows(x, n-5, n)
	for i := n - 6; i >= 0; i-- {
		// Column i of L, L[i+t][i] at lc[t·5], beside x[i+t].
		r := i*6 + 5
		lc := l[r : r+26 : r+26]
		xv := x[i : i+6 : i+6]
		s := xv[0]
		m := last[i] - i
		if m >= 1 {
			s -= lc[5] * xv[1]
			if m >= 2 {
				s -= lc[10] * xv[2]
				if m >= 3 {
					s -= lc[15] * xv[3]
					if m >= 4 {
						s -= lc[20] * xv[4]
						if m >= 5 {
							s -= lc[25] * xv[5]
						}
					}
				}
			}
		}
		xv[0] = s * dinv[i]
	}
}

// solveBand6 is solveBand for half-bandwidth 6.
func solveBand6(c *BandCholesky, b, x []float64) {
	n, l := c.n, c.l
	// Cut to n so that the compiler proves every row index in bounds.
	dinv, first, last := c.dinv[:n], c.env.first[:n], c.env.last[:n]
	b, x = b[:n], x[:n]
	c.forwardRows(b, x, 0, 6)
	for i := 6; i < n; i++ {
		r := i * 7
		li := l[r : r+6 : r+6]
		xv := x[i-6 : i : i]
		s := b[i]
		switch i - first[i] {
		case 6:
			s -= li[0] * xv[0]
			fallthrough
		case 5:
			s -= li[1] * xv[1]
			fallthrough
		case 4:
			s -= li[2] * xv[2]
			fallthrough
		case 3:
			s -= li[3] * xv[3]
			fallthrough
		case 2:
			s -= li[4] * xv[4]
			fallthrough
		case 1:
			s -= li[5] * xv[5]
		}
		x[i] = s * dinv[i]
	}
	c.backRows(x, n-6, n)
	for i := n - 7; i >= 0; i-- {
		// Column i of L, L[i+t][i] at lc[t·6], beside x[i+t].
		r := i*7 + 6
		lc := l[r : r+37 : r+37]
		xv := x[i : i+7 : i+7]
		s := xv[0]
		m := last[i] - i
		if m >= 1 {
			s -= lc[6] * xv[1]
			if m >= 2 {
				s -= lc[12] * xv[2]
				if m >= 3 {
					s -= lc[18] * xv[3]
					if m >= 4 {
						s -= lc[24] * xv[4]
						if m >= 5 {
							s -= lc[30] * xv[5]
							if m >= 6 {
								s -= lc[36] * xv[6]
							}
						}
					}
				}
			}
		}
		xv[0] = s * dinv[i]
	}
}

// solveBand7 is solveBand for half-bandwidth 7.
func solveBand7(c *BandCholesky, b, x []float64) {
	n, l := c.n, c.l
	// Cut to n so that the compiler proves every row index in bounds.
	dinv, first, last := c.dinv[:n], c.env.first[:n], c.env.last[:n]
	b, x = b[:n], x[:n]
	c.forwardRows(b, x, 0, 7)
	for i := 7; i < n; i++ {
		r := i * 8
		li := l[r : r+7 : r+7]
		xv := x[i-7 : i : i]
		s := b[i]
		switch i - first[i] {
		case 7:
			s -= li[0] * xv[0]
			fallthrough
		case 6:
			s -= li[1] * xv[1]
			fallthrough
		case 5:
			s -= li[2] * xv[2]
			fallthrough
		case 4:
			s -= li[3] * xv[3]
			fallthrough
		case 3:
			s -= li[4] * xv[4]
			fallthrough
		case 2:
			s -= li[5] * xv[5]
			fallthrough
		case 1:
			s -= li[6] * xv[6]
		}
		x[i] = s * dinv[i]
	}
	c.backRows(x, n-7, n)
	for i := n - 8; i >= 0; i-- {
		// Column i of L, L[i+t][i] at lc[t·7], beside x[i+t].
		r := i*8 + 7
		lc := l[r : r+50 : r+50]
		xv := x[i : i+8 : i+8]
		s := xv[0]
		m := last[i] - i
		if m >= 1 {
			s -= lc[7] * xv[1]
			if m >= 2 {
				s -= lc[14] * xv[2]
				if m >= 3 {
					s -= lc[21] * xv[3]
					if m >= 4 {
						s -= lc[28] * xv[4]
						if m >= 5 {
							s -= lc[35] * xv[5]
							if m >= 6 {
								s -= lc[42] * xv[6]
								if m >= 7 {
									s -= lc[49] * xv[7]
								}
							}
						}
					}
				}
			}
		}
		xv[0] = s * dinv[i]
	}
}

// solveBand8 is solveBand for half-bandwidth 8.
func solveBand8(c *BandCholesky, b, x []float64) {
	n, l := c.n, c.l
	// Cut to n so that the compiler proves every row index in bounds.
	dinv, first, last := c.dinv[:n], c.env.first[:n], c.env.last[:n]
	b, x = b[:n], x[:n]
	c.forwardRows(b, x, 0, 8)
	for i := 8; i < n; i++ {
		r := i * 9
		li := l[r : r+8 : r+8]
		xv := x[i-8 : i : i]
		s := b[i]
		switch i - first[i] {
		case 8:
			s -= li[0] * xv[0]
			fallthrough
		case 7:
			s -= li[1] * xv[1]
			fallthrough
		case 6:
			s -= li[2] * xv[2]
			fallthrough
		case 5:
			s -= li[3] * xv[3]
			fallthrough
		case 4:
			s -= li[4] * xv[4]
			fallthrough
		case 3:
			s -= li[5] * xv[5]
			fallthrough
		case 2:
			s -= li[6] * xv[6]
			fallthrough
		case 1:
			s -= li[7] * xv[7]
		}
		x[i] = s * dinv[i]
	}
	c.backRows(x, n-8, n)
	for i := n - 9; i >= 0; i-- {
		// Column i of L, L[i+t][i] at lc[t·8], beside x[i+t].
		r := i*9 + 8
		lc := l[r : r+65 : r+65]
		xv := x[i : i+9 : i+9]
		s := xv[0]
		m := last[i] - i
		if m >= 1 {
			s -= lc[8] * xv[1]
			if m >= 2 {
				s -= lc[16] * xv[2]
				if m >= 3 {
					s -= lc[24] * xv[3]
					if m >= 4 {
						s -= lc[32] * xv[4]
						if m >= 5 {
							s -= lc[40] * xv[5]
							if m >= 6 {
								s -= lc[48] * xv[6]
								if m >= 7 {
									s -= lc[56] * xv[7]
									if m >= 8 {
										s -= lc[64] * xv[8]
									}
								}
							}
						}
					}
				}
			}
		}
		xv[0] = s * dinv[i]
	}
}

// mulVecSym adds A·x into y, zeroed, for the symmetric band matrix a
// with the straight-line kernel for half-bandwidth bw, 3 ≤ bw ≤
// maxKernelBW < n.
func mulVecSym(bw int, a *BandMatrix, x, y []float64) {
	switch bw {
	case 3:
		mulVecSym3(a, x, y)
		return
	case 4:
		mulVecSym4(a, x, y)
		return
	case 5:
		mulVecSym5(a, x, y)
		return
	case 6:
		mulVecSym6(a, x, y)
		return
	case 7:
		mulVecSym7(a, x, y)
		return
	case 8:
		mulVecSym8(a, x, y)
		return
	}
	panic("linalg: no mulVecSym kernel for this bandwidth")
}

// mulVecSym3 is mulVecSym for half-bandwidth 3.
func mulVecSym3(a *BandMatrix, x, y []float64) {
	n, d := a.n, a.data
	a.mulVecRows(x, y, 0, 3)
	for i := 3; i < n; i++ {
		r := i * 4
		ai := d[r : r+4 : r+4]
		xv := x[i-3 : i+1 : i+1]
		yv := y[i-3 : i+1 : i+1]
		xi := xv[3]
		s := ai[0] * xv[0]
		yv[0] += ai[0] * xi
		s += ai[1] * xv[1]
		yv[1] += ai[1] * xi
		s += ai[2] * xv[2]
		yv[2] += ai[2] * xi
		s += ai[3] * xi
		yv[3] += s
	}
}

// mulVecSym4 is mulVecSym for half-bandwidth 4.
func mulVecSym4(a *BandMatrix, x, y []float64) {
	n, d := a.n, a.data
	a.mulVecRows(x, y, 0, 4)
	for i := 4; i < n; i++ {
		r := i * 5
		ai := d[r : r+5 : r+5]
		xv := x[i-4 : i+1 : i+1]
		yv := y[i-4 : i+1 : i+1]
		xi := xv[4]
		s := ai[0] * xv[0]
		yv[0] += ai[0] * xi
		s += ai[1] * xv[1]
		yv[1] += ai[1] * xi
		s += ai[2] * xv[2]
		yv[2] += ai[2] * xi
		s += ai[3] * xv[3]
		yv[3] += ai[3] * xi
		s += ai[4] * xi
		yv[4] += s
	}
}

// mulVecSym5 is mulVecSym for half-bandwidth 5.
func mulVecSym5(a *BandMatrix, x, y []float64) {
	n, d := a.n, a.data
	a.mulVecRows(x, y, 0, 5)
	for i := 5; i < n; i++ {
		r := i * 6
		ai := d[r : r+6 : r+6]
		xv := x[i-5 : i+1 : i+1]
		yv := y[i-5 : i+1 : i+1]
		xi := xv[5]
		s := ai[0] * xv[0]
		yv[0] += ai[0] * xi
		s += ai[1] * xv[1]
		yv[1] += ai[1] * xi
		s += ai[2] * xv[2]
		yv[2] += ai[2] * xi
		s += ai[3] * xv[3]
		yv[3] += ai[3] * xi
		s += ai[4] * xv[4]
		yv[4] += ai[4] * xi
		s += ai[5] * xi
		yv[5] += s
	}
}

// mulVecSym6 is mulVecSym for half-bandwidth 6.
func mulVecSym6(a *BandMatrix, x, y []float64) {
	n, d := a.n, a.data
	a.mulVecRows(x, y, 0, 6)
	for i := 6; i < n; i++ {
		r := i * 7
		ai := d[r : r+7 : r+7]
		xv := x[i-6 : i+1 : i+1]
		yv := y[i-6 : i+1 : i+1]
		xi := xv[6]
		s := ai[0] * xv[0]
		yv[0] += ai[0] * xi
		s += ai[1] * xv[1]
		yv[1] += ai[1] * xi
		s += ai[2] * xv[2]
		yv[2] += ai[2] * xi
		s += ai[3] * xv[3]
		yv[3] += ai[3] * xi
		s += ai[4] * xv[4]
		yv[4] += ai[4] * xi
		s += ai[5] * xv[5]
		yv[5] += ai[5] * xi
		s += ai[6] * xi
		yv[6] += s
	}
}

// mulVecSym7 is mulVecSym for half-bandwidth 7.
func mulVecSym7(a *BandMatrix, x, y []float64) {
	n, d := a.n, a.data
	a.mulVecRows(x, y, 0, 7)
	for i := 7; i < n; i++ {
		r := i * 8
		ai := d[r : r+8 : r+8]
		xv := x[i-7 : i+1 : i+1]
		yv := y[i-7 : i+1 : i+1]
		xi := xv[7]
		s := ai[0] * xv[0]
		yv[0] += ai[0] * xi
		s += ai[1] * xv[1]
		yv[1] += ai[1] * xi
		s += ai[2] * xv[2]
		yv[2] += ai[2] * xi
		s += ai[3] * xv[3]
		yv[3] += ai[3] * xi
		s += ai[4] * xv[4]
		yv[4] += ai[4] * xi
		s += ai[5] * xv[5]
		yv[5] += ai[5] * xi
		s += ai[6] * xv[6]
		yv[6] += ai[6] * xi
		s += ai[7] * xi
		yv[7] += s
	}
}

// mulVecSym8 is mulVecSym for half-bandwidth 8.
func mulVecSym8(a *BandMatrix, x, y []float64) {
	n, d := a.n, a.data
	a.mulVecRows(x, y, 0, 8)
	for i := 8; i < n; i++ {
		r := i * 9
		ai := d[r : r+9 : r+9]
		xv := x[i-8 : i+1 : i+1]
		yv := y[i-8 : i+1 : i+1]
		xi := xv[8]
		s := ai[0] * xv[0]
		yv[0] += ai[0] * xi
		s += ai[1] * xv[1]
		yv[1] += ai[1] * xi
		s += ai[2] * xv[2]
		yv[2] += ai[2] * xi
		s += ai[3] * xv[3]
		yv[3] += ai[3] * xi
		s += ai[4] * xv[4]
		yv[4] += ai[4] * xi
		s += ai[5] * xv[5]
		yv[5] += ai[5] * xi
		s += ai[6] * xv[6]
		yv[6] += ai[6] * xi
		s += ai[7] * xv[7]
		yv[7] += ai[7] * xi
		s += ai[8] * xi
		yv[8] += s
	}
}
