package main

import (
	"fmt"
	"math"

	"dspp/internal/core"
	"dspp/internal/game"
)

// Tolerances for checking solver output against the instance. Interior-
// point plans satisfy their constraints only to the solver's residual
// tolerance, which is relative to the norm of all constraint data (1e-8
// of it, so ~1e-4 servers on the Fig 7 games); each check allows a
// relative slack of its own bound that is still far below anything a
// wrong plan would show.
const (
	capRelTol = 1e-5
	slaRelTol = 1e-5
)

// Cost-gap window: the decomposed solve may cost at most 1% more than the
// monolithic one, and undercut it only by rounding.
const (
	gapMinPct = -0.01
	gapMaxPct = 1.0
)

// checkPlan verifies an allocation against the instance itself, not
// against the QP the solver built: dimensions, nonnegativity and the
// feasibility pattern (CheckState), per-DC capacity, and the SLA of
// eq. 10 for the given demand under the proportional assignment.
func checkPlan(inst *core.Instance, x core.State, demand []float64) error {
	if err := inst.CheckState(x); err != nil {
		return err
	}
	var maxX float64
	for l, row := range x {
		var used float64
		for _, v := range row {
			used += v
			maxX = math.Max(maxX, v)
		}
		c, err := inst.Capacity(l)
		if err != nil {
			return err
		}
		if used > c*(1+capRelTol)+capRelTol {
			return fmt.Errorf("DC %d hosts %g servers, capacity %g", l, used, c)
		}
	}
	ok, err := inst.SLASatisfied(x, demand, slaRelTol*(1+maxX))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("allocation misses the SLA for the demand it was planned for")
	}
	return nil
}

// checkGame verifies a best-response outcome against its scenario: every
// quota is nonnegative, the quotas of a capacitated DC sum to at most its
// capacity, each provider's servers fit its quota in every step of the
// window, the providers together fit the DC, and every provider's plan
// meets its SLA for its demand in every step. A game stopped by its
// iteration cap returns the quotas of one more re-division than its
// outcomes were solved under, so only the DC totals are checked there.
func checkGame(s *game.Scenario, br *game.BestResponseResult) error {
	if len(br.Quotas) != len(s.Providers) || len(br.Outcomes) != len(s.Providers) {
		return fmt.Errorf("result has %d quota rows and %d outcomes for %d providers",
			len(br.Quotas), len(br.Outcomes), len(s.Providers))
	}
	w := s.Window()
	for l, c := range s.Capacity {
		var quota float64
		for i, q := range br.Quotas {
			if q[l] < 0 || math.IsNaN(q[l]) {
				return fmt.Errorf("provider %d quota at DC %d = %g", i, l, q[l])
			}
			quota += q[l]
		}
		if !math.IsInf(c, 1) && quota > c*(1+capRelTol) {
			return fmt.Errorf("DC %d quotas sum to %g, capacity %g", l, quota, c)
		}
		for t := 0; t < w; t++ {
			var used float64
			for i, p := range s.Providers {
				x := br.Outcomes[i].X
				if len(x) != w {
					return fmt.Errorf("provider %d plan has %d steps, want %d", i, len(x), w)
				}
				var mine float64
				for _, v := range x[t][l] {
					mine += v * p.ServerSize
				}
				if br.Converged && mine > br.Quotas[i][l]*(1+capRelTol)+solverSlack(p, br.Quotas[i]) {
					return fmt.Errorf("provider %d uses %g units of DC %d at step %d, quota %g", i, mine, l, t, br.Quotas[i][l])
				}
				used += mine
			}
			if used > c*(1+capRelTol) {
				return fmt.Errorf("DC %d hosts %g units at step %d, capacity %g", l, used, t, c)
			}
		}
	}
	for i, p := range s.Providers {
		// Capacity was checked above against the quotas; the SLA check
		// needs only the coefficients.
		caps := make([]float64, len(p.SLA))
		for l := range caps {
			caps[l] = math.Inf(1)
		}
		inst, err := core.NewInstance(core.Config{SLA: p.SLA, ReconfigWeights: p.ReconfigWeights, Capacities: caps})
		if err != nil {
			return fmt.Errorf("provider %d: %w", i, err)
		}
		for t := 0; t < w; t++ {
			if err := checkPlan(inst, br.Outcomes[i].X[t], p.Demand[t]); err != nil {
				return fmt.Errorf("provider %d step %d: %w", i, t, err)
			}
		}
	}
	return nil
}

// solverSlack is the absolute capacity-row violation, in capacity units,
// an interior-point plan of provider p may carry: the solver stops at a
// primal residual of 1e-8 of its constraint data's norm, which the
// demand rows dominate. The factor 10 covers the per-row share of it.
func solverSlack(p *game.Provider, quota []float64) float64 {
	var sq float64
	for _, row := range p.Demand {
		for _, d := range row {
			sq += d * d
		}
	}
	for _, q := range quota {
		if !math.IsInf(q, 1) {
			sq += (q / p.ServerSize) * (q / p.ServerSize)
		}
	}
	return 1e-7 * (1 + math.Sqrt(sq)) * p.ServerSize
}

// costGapPct returns (decomp − mono)/mono·100 and an error when it falls
// outside the accepted window.
func costGapPct(decomp, mono float64) (float64, error) {
	if mono <= 0 || math.IsNaN(decomp) {
		return math.NaN(), fmt.Errorf("objectives decomp=%g mono=%g", decomp, mono)
	}
	gap := (decomp - mono) / mono * 100
	if gap < gapMinPct || gap > gapMaxPct {
		return gap, fmt.Errorf("cost gap %.4f%% outside [%g, %g]", gap, gapMinPct, gapMaxPct)
	}
	return gap, nil
}

// checkFig7 compares a sweep's iteration matrix with the reference the
// experiments package computes for the same seed; at the paper seed the
// mean over player counts at capacity 100 is pinned to 74.60.
func checkFig7(seed int64, got, want [][]int) error {
	if len(got) != len(want) {
		return fmt.Errorf("fig7 sweep has %d capacities, reference %d", len(got), len(want))
	}
	for ci := range want {
		if len(got[ci]) != len(want[ci]) {
			return fmt.Errorf("fig7 capacity %d: %d player counts, reference %d", ci, len(got[ci]), len(want[ci]))
		}
		for n := range want[ci] {
			if got[ci][n] != want[ci][n] {
				return fmt.Errorf("fig7 capacity %d, %d players: %d iterations, reference %d",
					ci, n+1, got[ci][n], want[ci][n])
			}
		}
	}
	if seed == paperSeed && len(got[0]) == 10 {
		if m := meanIters(got[0]); m != 74.6 {
			return fmt.Errorf("mean_iters_cap100 = %.2f, pinned 74.60", m)
		}
	}
	return nil
}

// paperSeed is the seed the repository's figures are pinned at.
const paperSeed = 2012

func meanIters(row []int) float64 {
	var sum int
	for _, it := range row {
		sum += it
	}
	return float64(sum) / float64(len(row))
}
