package experiments

import (
	"context"
	"fmt"

	"dspp/internal/decomp"
)

// DecompScalingResult is the shard-scaling curve of the geographic
// decomposition (ROADMAP item 1): per case, the coordinated sharded solve
// against the monolithic reference on the same continental scenario.
type DecompScalingResult struct {
	Table   *Table
	Records []decomp.ScalingRecord
}

// DecompScaling measures the scaling curve. The smoke set (full=false)
// stays at sizes where the monolithic reference is seconds; full adds the
// continental n≥1000 sizes (the monolithic n=1000 reference takes
// minutes) and an n=2000 frontier only the decomposition touches.
func DecompScaling(ctx context.Context, full bool) (*DecompScalingResult, error) {
	records, err := decomp.RunScaling(ctx, decomp.DefaultScalingCases(full))
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Decomposition shard scaling: coordinated region QPs vs monolithic",
		Columns: []string{"case", "locs", "DCs", "shards", "shared", "rounds",
			"decomp s", "mono s", "speedup", "gap %"},
	}
	for _, r := range records {
		gap, speed := "n/a", "n/a"
		if r.CostGap >= -1 && r.MonoObjective != 0 {
			gap = fmt.Sprintf("%.3f", 100*r.CostGap)
		}
		if r.Speedup > 0 {
			speed = fmt.Sprintf("%.2f", r.Speedup)
		}
		t.AddRow(r.Name,
			fmt.Sprintf("%d", r.Locations), fmt.Sprintf("%d", r.DCs),
			fmt.Sprintf("%d", r.Shards), fmt.Sprintf("%d", r.SharedDCs),
			fmt.Sprintf("%d", r.Rounds),
			fmt.Sprintf("%.3f", r.DecompSolveSec), fmt.Sprintf("%.3f", r.MonoSolveSec),
			speed, gap)
	}
	return &DecompScalingResult{Table: t, Records: records}, nil
}

// Check verifies the scaling story: every measured point converged with a
// cost gap within 1% of the monolithic optimum, and no point regressed
// below the optimum (which would mean an infeasible split).
func (r *DecompScalingResult) Check() error {
	for _, rec := range r.Records {
		if !rec.Converged {
			return fmt.Errorf("%w: %s did not converge in budget", ErrShape, rec.Name)
		}
		if rec.MonoObjective == 0 {
			continue // frontier point: no reference at this size
		}
		if rec.CostGap > 0.01 {
			return fmt.Errorf("%w: %s cost gap %.4f exceeds 1%%", ErrShape, rec.Name, rec.CostGap)
		}
		if rec.CostGap < -1e-4 {
			return fmt.Errorf("%w: %s decomposed objective %.6g below the monolithic optimum %.6g",
				ErrShape, rec.Name, rec.DecompObjective, rec.MonoObjective)
		}
	}
	return nil
}
