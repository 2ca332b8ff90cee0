package qp

import (
	"slices"
	"sort"

	"dspp/internal/linalg"
)

// Structure is the symbolic phase of the solver: everything about a
// problem that depends only on its fixed part — Q, G and the linking
// rows — and not on C, H or the iterate. It holds the KKT band, the
// envelopes every session lays its factors out over (the band part H_b's
// and the Schur complement S's), H_b's diagonal blocks, the coupling rows
// in CSR form with their per-block slots, and the scatter map that forms
// C H_b⁻¹ Cᵀ from each block's inverse.
//
// Analyze builds it once per structure; solves only read it, so one
// Structure may serve any number of concurrent sessions
// (Problem.Structure). NewSession analyses a problem without one itself.
type Structure struct {
	// The analysed data: Problem.Validate rejects a Structure paired with
	// other matrices. Q's bandwidth bw is the half-bandwidth of H_b.
	qBand   *linalg.BandMatrix
	g       *linalg.SparseMatrix
	linking []int
	bw      int
	// env is H_b's envelope, from its structural pattern: Q's band and the
	// band rows of G. Every band kernel iterates inside it.
	env *linalg.Envelope
	// link is the symbolic half of the linking-row Schur complement;
	// noLinks when the problem has no coupling rows.
	link *linkSymbolic
}

// noLinks is the empty Schur layout every structure without coupling rows
// shares (read-only).
var noLinks linkSymbolic

// linkSymbolic is the symbolic half of the linking-row Schur complement
// (linkSchur holds the numeric half).
type linkSymbolic struct {
	k   int              // linking rows of G
	env *linalg.Envelope // S's envelope: the full band (S is dense)

	// The linking rows in CSR form.
	ptr  []int
	cols []int
	vals []float64

	// Touched diagonal blocks of H_b. Block j spans rows [lo[j], hi[j]) and
	// owns slots slot[j] .. slot[j+1]−1. Slot s belongs to linking row
	// row[s] (ascending within a block); its entries inside the block are
	// cols/vals[eLo[s]:eHi[s]].
	lo, hi, slot  []int
	row, eLo, eHi []int
	widest        int // widest touched block

	// Gram scatter map. Every pair of slots (s, t ≤ s) of block j adds one
	// entry of C H_b⁻¹ Cᵀ. When both slots hold one entry of coefficient 1
	// — capacity rows, which meet a location block in one pair — the pair
	// is a precomputed term; the others are listed as slot pairs and summed
	// in full. Block j's terms are terms[termPtr[j]:termPtr[j+1]], its
	// pairs pairs[pairPtr[j]:pairPtr[j+1]].
	terms            []gramTerm
	pairs            [][2]int
	termPtr, pairPtr []int
}

// gramTerm adds Z[z] to the entry of S's packed storage at s, where Z is
// its block's dense inverse (row-major): the general pair sum 1·(Z[z]·1)
// to the bit. The indices are int32: S and a block's inverse are dense,
// so an index past that range would address a 16 GB buffer.
type gramTerm struct{ s, z int32 }

// sIndex is the position of S(a, b), b ≤ a, in S's packed storage (S is
// dense: half-bandwidth k−1).
func (ls *linkSymbolic) sIndex(a, b int) int { return a*ls.k + b + ls.k - 1 - a }

// Analyze runs the symbolic phase for p's Q, G and Linking (C and H are
// not read and may be nil). The result may be set as Problem.Structure on
// every problem that shares those matrices (by identity) and linking
// rows, whatever their C and H.
func Analyze(p *Problem) (*Structure, error) {
	if err := p.validateMatrices(); err != nil {
		return nil, err
	}
	n, m := p.NumVars(), p.NumIneq()
	s := &Structure{qBand: p.Q, g: p.G, linking: slices.Clone(p.Linking), bw: p.Q.Bandwidth()}

	// H_b's envelope: row i starts at Q's first nonzero in it or at the
	// first column of a band row of G that covers it, whichever is
	// leftmost. A G row wider than the band is clamped here and rejected
	// by the first assembly.
	first := make([]int, n)
	bw := s.bw
	for i := range first {
		first[i] = i
		row := p.Q.Row(i)
		for d := 0; d < bw; d++ {
			if j := i - bw + d; j >= 0 && row[d] != 0 {
				first[i] = j
				break
			}
		}
	}
	lk := p.Linking
	for r := 0; r < m; r++ {
		if len(lk) > 0 && lk[0] == r {
			lk = lk[1:]
			continue
		}
		if cols, _ := p.G.RowEntries(r); len(cols) > 0 {
			for c := cols[0]; c <= cols[len(cols)-1]; c++ {
				first[c] = min(first[c], cols[0])
			}
		}
	}
	for i := range first {
		first[i] = max(first[i], i-bw)
	}
	s.env, _ = linalg.NewEnvelope(first) // 0 ≤ first[i] ≤ i by construction

	s.link = &noLinks
	if len(p.Linking) > 0 {
		s.link = analyzeLinks(p, s.env, n)
	}
	return s, nil
}

// matches reports whether s was analysed for p's fixed part.
func (s *Structure) matches(p *Problem) bool {
	return s.qBand == p.Q && s.g == p.G && slices.Equal(s.linking, p.Linking)
}

// analyzeLinks lays out the Schur pieces of p's linking rows. The
// diagonal blocks of H_b are read off its envelope: column c closes a
// block when no row after c reaches it.
func analyzeLinks(p *Problem, env *linalg.Envelope, n int) *linkSymbolic {
	k := len(p.Linking)
	ls := &linkSymbolic{k: k, env: linalg.FullBand(k, k-1)}
	bnd := []int{0}
	for c := 0; c < n; c++ {
		if env.Last(c) == c {
			bnd = append(bnd, c+1)
		}
	}

	ls.ptr = append(make([]int, 0, ls.k+1), 0)
	for _, r := range p.Linking {
		rc, rv := p.G.RowEntries(r)
		ls.cols, ls.vals = append(ls.cols, rc...), append(ls.vals, rv...)
		ls.ptr = append(ls.ptr, len(ls.cols))
	}
	cols, vals, ptr := ls.cols, ls.vals, ls.ptr

	// One slot per (block, linking row) pair, keyed block-major so the
	// sort groups each block's slots with their rows ascending. A slot
	// holds at least one entry, so len(cols) bounds their count.
	key := make([]int, 0, len(cols))
	ls.row = make([]int, 0, len(cols))
	ls.eLo, ls.eHi = make([]int, 0, len(cols)), make([]int, 0, len(cols))
	for c := 0; c < ls.k; c++ {
		for e := ptr[c]; e < ptr[c+1]; {
			j := sort.SearchInts(bnd, cols[e]+1) - 1
			f := e + 1
			for f < ptr[c+1] && cols[f] < bnd[j+1] {
				f++
			}
			key = append(key, j*ls.k+c)
			ls.row = append(ls.row, c)
			ls.eLo = append(ls.eLo, e)
			ls.eHi = append(ls.eHi, f)
			e = f
		}
	}
	sort.Sort(slotOrder{key, ls})

	nb := len(bnd) - 1 // every block, touched or not
	ls.lo, ls.hi, ls.slot = make([]int, 0, nb), make([]int, 0, nb), make([]int, 0, nb+1)
	for s, kv := range key {
		j := kv / ls.k
		if s == 0 || j != key[s-1]/ls.k {
			ls.lo = append(ls.lo, bnd[j])
			ls.hi = append(ls.hi, bnd[j+1])
			ls.slot = append(ls.slot, s)
			ls.widest = max(ls.widest, bnd[j+1]-bnd[j])
		}
	}
	ls.slot = append(ls.slot, len(key))

	// Size the scatter map exactly: a block with ns unit slots (one entry
	// of coefficient 1) out of ms has ns(ns+1)/2 terms among its
	// ms(ms+1)/2 pairs.
	unit := func(s int) bool { return ls.eHi[s]-ls.eLo[s] == 1 && vals[ls.eLo[s]] == 1 }
	nt, np := 0, 0
	for j := range ls.lo {
		ms, ns := ls.slot[j+1]-ls.slot[j], 0
		for s := ls.slot[j]; s < ls.slot[j+1]; s++ {
			if unit(s) {
				ns++
			}
		}
		nt += ns * (ns + 1) / 2
		np += ms*(ms+1)/2 - ns*(ns+1)/2
	}
	ls.terms, ls.pairs = make([]gramTerm, 0, nt), make([][2]int, 0, np)
	ls.termPtr = append(make([]int, 0, len(ls.lo)+1), 0)
	ls.pairPtr = append(make([]int, 0, len(ls.lo)+1), 0)
	for j, blo := range ls.lo {
		size := ls.hi[j] - blo
		for s := ls.slot[j]; s < ls.slot[j+1]; s++ {
			for t := ls.slot[j]; t <= s; t++ {
				if unit(s) && unit(t) {
					ls.terms = append(ls.terms, gramTerm{
						s: int32(ls.sIndex(ls.row[s], ls.row[t])),
						z: int32((cols[ls.eLo[s]]-blo)*size + cols[ls.eLo[t]] - blo),
					})
				} else {
					ls.pairs = append(ls.pairs, [2]int{s, t})
				}
			}
		}
		ls.termPtr = append(ls.termPtr, len(ls.terms))
		ls.pairPtr = append(ls.pairPtr, len(ls.pairs))
	}
	return ls
}

// slotOrder sorts a linkSymbolic's slots by key, carrying the parallel
// arrays.
type slotOrder struct {
	key []int
	ls  *linkSymbolic
}

func (o slotOrder) Len() int           { return len(o.key) }
func (o slotOrder) Less(a, b int) bool { return o.key[a] < o.key[b] }
func (o slotOrder) Swap(a, b int) {
	ls := o.ls
	o.key[a], o.key[b] = o.key[b], o.key[a]
	ls.row[a], ls.row[b] = ls.row[b], ls.row[a]
	ls.eLo[a], ls.eLo[b] = ls.eLo[b], ls.eLo[a]
	ls.eHi[a], ls.eHi[b] = ls.eHi[b], ls.eHi[a]
}
