package daemon

import (
	"context"
	"time"

	"dspp/internal/core"
	"dspp/internal/decomp"
)

// controller abstracts the daemon's MPC engine: the monolithic
// core.Controller or (with Config.Decomp) the decomposed continental
// controller. *core.Controller satisfies it directly; decompCtrl adapts
// decomp.Controller's (applied, state, error) step signature and its
// different warm-start story.
type controller interface {
	StepCtx(ctx context.Context, demand, prices [][]float64) (*core.StepResult, error)
	State() core.State
	SetState(core.State) error
	SetStall(time.Duration)
	MissStreak() int
	RestoreMissStreak(int)
	WarmCapsule() *core.HorizonWarm
	RestoreWarm(*core.HorizonWarm)
}

// decompCtrl adapts decomp.Controller to the daemon's controller
// interface. The per-period budget becomes a context deadline — the
// decomposed controller's anytime contract applies the last complete
// coordination iterate when the deadline lands between rounds.
//
// Checkpoints are state-only for the decomposed path: per-shard warm
// starts, standing factorizations, and quota duals live inside the
// shard sessions and are rebuilt on restart, so a resumed run converges
// to the same trajectory but is not bit-identical to an uninterrupted
// one (the monolithic path keeps that stronger contract via its warm
// capsule; here WarmCapsule is nil and RestoreWarm a no-op).
type decompCtrl struct {
	ctrl   *decomp.Controller
	budget time.Duration
}

func (dc *decompCtrl) StepCtx(ctx context.Context, demand, prices [][]float64) (*core.StepResult, error) {
	if dc.budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, dc.budget)
		defer cancel()
	}
	applied, state, err := dc.ctrl.StepCtx(ctx, demand, prices)
	if err != nil {
		return nil, err
	}
	return &core.StepResult{
		Applied:     applied,
		NewState:    state,
		Degradation: dc.ctrl.LastDegradation(),
	}, nil
}

func (dc *decompCtrl) State() core.State              { return dc.ctrl.State() }
func (dc *decompCtrl) SetState(s core.State) error    { return dc.ctrl.SetState(s) }
func (dc *decompCtrl) SetStall(d time.Duration)       { dc.ctrl.SetStall(d) }
func (dc *decompCtrl) MissStreak() int                { return 0 }
func (dc *decompCtrl) RestoreMissStreak(int)          {}
func (dc *decompCtrl) WarmCapsule() *core.HorizonWarm { return nil }
func (dc *decompCtrl) RestoreWarm(*core.HorizonWarm)  {}

// LastSolution exposes the coordinated solver's per-step coordination
// accounting (Daemon.LastSolution type-asserts for it).
func (dc *decompCtrl) LastSolution() *decomp.Solution { return dc.ctrl.LastSolution() }

// LastExplain implements core.Explainer by forwarding to the decomposed
// controller, so daemon attribution records carry the retained shard
// capacity duals and the quota split they were computed under.
func (dc *decompCtrl) LastExplain() core.Explain { return dc.ctrl.LastExplain() }
