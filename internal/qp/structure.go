package qp

import (
	"slices"
	"sort"

	"dspp/internal/linalg"
)

// Structure is the symbolic phase of the solver: everything about a
// problem that depends only on its fixed part — Q, G and the linking
// rows — and not on C, H or the iterate. It holds the KKT band, the
// envelope of the band part H_b, H_b's diagonal
// blocks, the coupling rows in CSR form with their per-block slots, and
// the scatter map that forms C H_b⁻¹ Cᵀ from each block's inverse.
//
// Analyze builds it once per structure; solves only read it, so one
// Structure may serve any number of concurrent one-shot solves and
// sessions (Problem.Structure). A problem without one is analysed afresh
// by every solve.
type Structure struct {
	// The analysed data: Problem.Validate rejects a Structure paired with
	// other matrices. Q's bandwidth bw is the half-bandwidth of H_b.
	qBand   *linalg.BandMatrix
	g       *linalg.SparseMatrix
	linking []int
	bw      int
	// env is H_b's envelope, from its structural pattern: Q's band and the
	// band rows of G. Every band kernel iterates inside it.
	env   linalg.Envelope
	first []int // env's row starts, rewritten in place by a re-analysis
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
	k int // linking rows of G

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

	key, bnd []int // analysis scratch
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
	s := &Structure{}
	s.analyze(p)
	if s.link != &noLinks {
		// The analysis scratch only serves re-analyses into the same
		// storage.
		s.link.key, s.link.bnd = nil, nil
	}
	return s, nil
}

// matches reports whether s was analysed for p's fixed part.
func (s *Structure) matches(p *Problem) bool {
	return s.qBand == p.Q && s.g == p.G && slices.Equal(s.linking, p.Linking)
}

// release drops s's references to the analysed problem, so a pooled
// solver state does not keep it alive.
func (s *Structure) release() {
	s.qBand, s.g = nil, nil
}

// analyze fills s for p, reusing s's storage: allocation-free once the
// buffers have grown to p's shape.
func (s *Structure) analyze(p *Problem) {
	n, m := p.NumVars(), p.NumIneq()
	s.qBand, s.g, s.bw = p.Q, p.G, p.Q.Bandwidth()
	s.linking = append(s.linking[:0], p.Linking...)

	// H_b's envelope: row i starts at Q's first nonzero in it or at the
	// first column of a band row of G that covers it, whichever is
	// leftmost. A G row wider than the band is clamped here and rejected
	// by the first assembly.
	first := growInts(s.first, n)
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
	s.first = first
	_ = s.env.Set(first) // 0 ≤ first[i] ≤ i by construction

	if s.link == nil || s.link == &noLinks {
		if len(p.Linking) == 0 {
			s.link = &noLinks
			return
		}
		s.link = &linkSymbolic{}
	}
	s.link.analyze(p, &s.env, n)
}

// analyze lays out the Schur pieces. The diagonal blocks of H_b are read
// off its envelope: column c closes a block when no row after c reaches
// it.
func (ls *linkSymbolic) analyze(p *Problem, env *linalg.Envelope, n int) {
	ls.k = len(p.Linking)
	ls.widest = 0
	if ls.k == 0 {
		return
	}
	bnd := append(ls.bnd[:0], 0)
	for c := 0; c < n; c++ {
		if env.Last(c) == c {
			bnd = append(bnd, c+1)
		}
	}
	ls.bnd = bnd

	ptr := append(ls.ptr[:0], 0)
	cols, vals := ls.cols[:0], ls.vals[:0]
	for _, r := range p.Linking {
		rc, rv := p.G.RowEntries(r)
		cols, vals = append(cols, rc...), append(vals, rv...)
		ptr = append(ptr, len(cols))
	}
	ls.ptr, ls.cols, ls.vals = ptr, cols, vals

	// One slot per (block, linking row) pair, keyed block-major so the
	// sort groups each block's slots with their rows ascending. A slot
	// holds at least one entry, so len(cols) bounds their count.
	key, row := growCap(ls.key, len(cols)), growCap(ls.row, len(cols))
	eLo, eHi := growCap(ls.eLo, len(cols)), growCap(ls.eHi, len(cols))
	for c := 0; c < ls.k; c++ {
		for e := ptr[c]; e < ptr[c+1]; {
			j := sort.SearchInts(bnd, cols[e]+1) - 1
			f := e + 1
			for f < ptr[c+1] && cols[f] < bnd[j+1] {
				f++
			}
			key = append(key, j*ls.k+c)
			row = append(row, c)
			eLo = append(eLo, e)
			eHi = append(eHi, f)
			e = f
		}
	}
	ls.key, ls.row, ls.eLo, ls.eHi = key, row, eLo, eHi
	sort.Sort(slotOrder{ls})

	nb := len(bnd) - 1 // every block, touched or not
	lo, hi, slot := growCap(ls.lo, nb), growCap(ls.hi, nb), growCap(ls.slot, nb+1)
	for s, kv := range key {
		j := kv / ls.k
		if s == 0 || j != key[s-1]/ls.k {
			lo = append(lo, bnd[j])
			hi = append(hi, bnd[j+1])
			slot = append(slot, s)
			ls.widest = max(ls.widest, bnd[j+1]-bnd[j])
		}
	}
	ls.lo, ls.hi, ls.slot = lo, hi, append(slot, len(key))

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
	terms, pairs := ls.terms[:0], ls.pairs[:0]
	if cap(terms) < nt {
		terms = make([]gramTerm, 0, nt)
	}
	if cap(pairs) < np {
		pairs = make([][2]int, 0, np)
	}
	termPtr := append(growCap(ls.termPtr, len(ls.lo)+1), 0)
	pairPtr := append(growCap(ls.pairPtr, len(ls.lo)+1), 0)
	for j, blo := range ls.lo {
		size := ls.hi[j] - blo
		for s := ls.slot[j]; s < ls.slot[j+1]; s++ {
			for t := ls.slot[j]; t <= s; t++ {
				if unit(s) && unit(t) {
					terms = append(terms, gramTerm{
						s: int32(ls.sIndex(ls.row[s], ls.row[t])),
						z: int32((cols[ls.eLo[s]]-blo)*size + cols[ls.eLo[t]] - blo),
					})
				} else {
					pairs = append(pairs, [2]int{s, t})
				}
			}
		}
		termPtr = append(termPtr, len(terms))
		pairPtr = append(pairPtr, len(pairs))
	}
	ls.terms, ls.pairs, ls.termPtr, ls.pairPtr = terms, pairs, termPtr, pairPtr
}

// slotOrder sorts a linkSymbolic's slots by key, carrying the parallel
// arrays.
type slotOrder struct{ ls *linkSymbolic }

func (o slotOrder) Len() int           { return len(o.ls.key) }
func (o slotOrder) Less(a, b int) bool { return o.ls.key[a] < o.ls.key[b] }
func (o slotOrder) Swap(a, b int) {
	ls := o.ls
	ls.key[a], ls.key[b] = ls.key[b], ls.key[a]
	ls.row[a], ls.row[b] = ls.row[b], ls.row[a]
	ls.eLo[a], ls.eLo[b] = ls.eLo[b], ls.eLo[a]
	ls.eHi[a], ls.eHi[b] = ls.eHi[b], ls.eHi[a]
}

// growCap returns v emptied, with capacity for at least n entries.
func growCap(v []int, n int) []int {
	if cap(v) < n {
		return make([]int, 0, n)
	}
	return v[:0]
}

// growInts is growVec for index slices.
func growInts(v []int, n int) []int {
	if cap(v) < n {
		return make([]int, n)
	}
	return v[:n]
}
