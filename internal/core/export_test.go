package core

import "dspp/internal/linalg"

// HorizonLayout is the structure-guard view of a cached horizon QP: its
// band quadratic term, constraint matrix, linking rows and column map.
type HorizonLayout struct {
	Q           *linalg.BandMatrix
	G           *linalg.SparseMatrix
	Linking     []int
	Capacitated []int
	RowsPerStep int
	Col         func(pair, t int) int
}

// HorizonLayoutForTest exposes the horizon structure for w steps.
func (in *Instance) HorizonLayoutForTest(w int, soft bool) (*HorizonLayout, error) {
	hs, err := in.horizonStructure(w, soft)
	if err != nil {
		return nil, err
	}
	return &HorizonLayout{
		Q: hs.q, G: hs.g, Linking: hs.linking, Capacitated: hs.capacitated,
		RowsPerStep: hs.rowsPerStep, Col: hs.col,
	}, nil
}
