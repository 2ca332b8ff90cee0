// Package core implements the paper's primary contribution: the Dynamic
// Service Placement Problem (DSPP, §IV) and its Model Predictive Control
// solution (Algorithm 1, §V).
//
// A DSPP instance is defined over L data centers and V client locations.
// The state x ∈ R₊^{L·V} counts servers at DC l dedicated to demand from
// location v; the control u changes x between periods. Each period the SP
// pays p_k^l per server plus a quadratic reconfiguration penalty c^l·u².
// Demand must be absorbed within an SLA latency bound, which the M/M/1
// reduction (package queue) turns into the linear constraint
// Σ_l x^lv / a^lv ≥ D^v, and DC capacities bound Σ_v x^lv ≤ C^l.
//
// The MPC controller solves, at each period, a strictly convex QP over the
// next W periods (states substituted out, so the decision variable is the
// control sequence) and applies only the first control — exactly the
// paper's Algorithm 1.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"dspp/internal/queue"
)

// Sentinel errors.
var (
	// ErrBadInstance flags inconsistent instance dimensions or values.
	ErrBadInstance = errors.New("core: invalid instance")
	// ErrInfeasible means a location has demand but no feasible data
	// center, or the requested horizon inputs are malformed.
	ErrInfeasible = errors.New("core: infeasible placement")
	// ErrBadInput flags malformed controller inputs.
	ErrBadInput = errors.New("core: invalid input")
)

// Instance is a DSPP instance: the placement graph with SLA coefficients,
// per-DC reconfiguration weights and capacities. Everything but the
// capacity values (see SetCapacities) is immutable after construction.
type Instance struct {
	l, v int
	// a[l][v] is the SLA coefficient a^lv (servers per unit arrival
	// rate); +Inf marks an infeasible (l, v) pair, excluded from the QP.
	a [][]float64
	// reconfig[l] is the quadratic reconfiguration weight c^l > 0.
	reconfig []float64
	// capacity[l] is C^l; +Inf means uncapacitated.
	capacity []float64
	// pairs enumerates the feasible (l, v) pairs; pairIdx[l][v] is the
	// dense variable index of the pair or -1.
	pairs   []pair
	pairIdx [][]int
	// Compressed support adjacency, the two directions of the pruned
	// (location, DC) index map: locPairs[v] lists the feasible DCs of
	// location v, dcPairs[l] the feasible locations of DC l, each entry
	// carrying the dense pair index and 1/a^lv. Hot loops (QP
	// right-hand-side fills, assignment, slack checks) iterate these lists
	// instead of scanning the full L×V grid testing pairIdx — on
	// geo-realistic topologies most pairs are SLA-infeasible, so the lists
	// are a small fraction of the grid.
	locPairs [][]pairRef
	dcPairs  [][]pairRef
	// aBest[v] is the smallest (most SLA-efficient) a^lv over location
	// v's feasible DCs — the reference rate the cost attribution uses to
	// split resource cost into a local component and a bandwidth-latency
	// premium (see AttributeCost).
	aBest []float64

	// qpCache holds the horizon QP's data-independent structure per
	// horizon length, hard and soft (see horizonStructure): the repeated
	// solves of an MPC or best-response loop then rebuild only the O(n)
	// cost and right-hand-side vectors. Guarded by qpMu — instances are
	// shared across the parallel sweep and experiment workers.
	qpMu    sync.Mutex
	qpCache map[horizonKey]*horizonStruct
}

type pair struct{ l, v int }

// pairRef is one entry of the compressed support adjacency: a feasible
// (l, v) pair seen from one of its endpoints, with the dense QP variable
// index and the reciprocal SLA coefficient precomputed (the hot loops
// always divide by a^lv).
type pairRef struct {
	l, v, idx int
	aInv      float64
}

// Config assembles an Instance.
type Config struct {
	// SLA is the L×V matrix of SLA coefficients a^lv. Use math.Inf(1)
	// for pairs that can never meet the SLA.
	SLA [][]float64
	// ReconfigWeights holds c^l > 0 per data center.
	ReconfigWeights []float64
	// Capacities holds C^l per data center; +Inf (or 0 treated as an
	// error) for explicit bounds. Use math.Inf(1) for uncapacitated DCs.
	Capacities []float64
}

// NewInstance validates and builds an instance.
func NewInstance(cfg Config) (*Instance, error) {
	l := len(cfg.SLA)
	if l == 0 {
		return nil, fmt.Errorf("no data centers: %w", ErrBadInstance)
	}
	v := len(cfg.SLA[0])
	if v == 0 {
		return nil, fmt.Errorf("no client locations: %w", ErrBadInstance)
	}
	if len(cfg.ReconfigWeights) != l {
		return nil, fmt.Errorf("reconfig weights %d, want %d: %w", len(cfg.ReconfigWeights), l, ErrBadInstance)
	}
	if len(cfg.Capacities) != l {
		return nil, fmt.Errorf("capacities %d, want %d: %w", len(cfg.Capacities), l, ErrBadInstance)
	}
	inst := &Instance{
		l: l, v: v,
		a:        make([][]float64, l),
		reconfig: append([]float64(nil), cfg.ReconfigWeights...),
		capacity: append([]float64(nil), cfg.Capacities...),
		pairIdx:  make([][]int, l),
	}
	for li := 0; li < l; li++ {
		if len(cfg.SLA[li]) != v {
			return nil, fmt.Errorf("SLA row %d has %d cols, want %d: %w", li, len(cfg.SLA[li]), v, ErrBadInstance)
		}
		if w := cfg.ReconfigWeights[li]; w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("reconfig weight[%d] = %g: %w", li, w, ErrBadInstance)
		}
		if c := cfg.Capacities[li]; c <= 0 || math.IsNaN(c) {
			return nil, fmt.Errorf("capacity[%d] = %g: %w", li, c, ErrBadInstance)
		}
		inst.a[li] = append([]float64(nil), cfg.SLA[li]...)
		inst.pairIdx[li] = make([]int, v)
		for vi := 0; vi < v; vi++ {
			aVal := cfg.SLA[li][vi]
			if math.IsNaN(aVal) || aVal <= 0 {
				return nil, fmt.Errorf("a[%d][%d] = %g: %w", li, vi, aVal, ErrBadInstance)
			}
			if math.IsInf(aVal, 1) {
				inst.pairIdx[li][vi] = -1
				continue
			}
			inst.pairIdx[li][vi] = len(inst.pairs)
			inst.pairs = append(inst.pairs, pair{l: li, v: vi})
		}
	}
	// Compressed adjacency: one pass over the dense pair list fans the
	// support out to both endpoints. The backing arrays are shared (one
	// allocation per direction) since the per-endpoint counts are known.
	inst.locPairs = make([][]pairRef, v)
	inst.dcPairs = make([][]pairRef, l)
	locCount := make([]int, v)
	dcCount := make([]int, l)
	for _, pr := range inst.pairs {
		locCount[pr.v]++
		dcCount[pr.l]++
	}
	locBacking := make([]pairRef, len(inst.pairs))
	dcBacking := make([]pairRef, len(inst.pairs))
	for vi := 0; vi < v; vi++ {
		inst.locPairs[vi] = locBacking[:0:locCount[vi]]
		locBacking = locBacking[locCount[vi]:]
	}
	for li := 0; li < l; li++ {
		inst.dcPairs[li] = dcBacking[:0:dcCount[li]]
		dcBacking = dcBacking[dcCount[li]:]
	}
	for idx, pr := range inst.pairs {
		ref := pairRef{l: pr.l, v: pr.v, idx: idx, aInv: 1 / inst.a[pr.l][pr.v]}
		inst.locPairs[pr.v] = append(inst.locPairs[pr.v], ref)
		inst.dcPairs[pr.l] = append(inst.dcPairs[pr.l], ref)
	}
	// Every location must have at least one feasible DC.
	for vi := 0; vi < v; vi++ {
		if len(inst.locPairs[vi]) == 0 {
			return nil, fmt.Errorf("location %d has no feasible data center: %w", vi, ErrInfeasible)
		}
	}
	inst.aBest = make([]float64, v)
	for vi := 0; vi < v; vi++ {
		best := math.Inf(1)
		for _, pr := range inst.locPairs[vi] {
			if a := inst.a[pr.l][pr.v]; a < best {
				best = a
			}
		}
		inst.aBest[vi] = best
	}
	return inst, nil
}

// SupportStats summarizes the SLA-sparsity pruning of an instance: how many
// of the L·V (location, DC) pairs survive the latency + M/M/1 bound and
// therefore carry QP variables. The horizon QP has FeasiblePairs·W
// variables, so PrunedFraction is the per-period share of the dense problem
// the pruning removed.
type SupportStats struct {
	// DataCenters and Locations echo the instance dimensions L and V.
	DataCenters, Locations int
	// TotalPairs = L·V, the unpruned pair count.
	TotalPairs int
	// FeasiblePairs is the number of pairs meeting the SLA bound — the
	// per-period QP variable count.
	FeasiblePairs int
	// PrunedPairs = TotalPairs − FeasiblePairs.
	PrunedPairs int
	// PrunedFraction = PrunedPairs / TotalPairs (0 when TotalPairs is 0).
	PrunedFraction float64
	// MinDCsPerLocation / MaxDCsPerLocation bound the per-location support
	// width (the minimum is ≥ 1 by construction).
	MinDCsPerLocation, MaxDCsPerLocation int
}

// Support reports the instance's SLA-sparsity statistics.
func (in *Instance) Support() SupportStats {
	st := SupportStats{
		DataCenters:   in.l,
		Locations:     in.v,
		TotalPairs:    in.l * in.v,
		FeasiblePairs: len(in.pairs),
	}
	st.PrunedPairs = st.TotalPairs - st.FeasiblePairs
	if st.TotalPairs > 0 {
		st.PrunedFraction = float64(st.PrunedPairs) / float64(st.TotalPairs)
	}
	for v, refs := range in.locPairs {
		if n := len(refs); v == 0 || n < st.MinDCsPerLocation {
			st.MinDCsPerLocation = n
		}
		if n := len(refs); n > st.MaxDCsPerLocation {
			st.MaxDCsPerLocation = n
		}
	}
	return st
}

// SLAConfig builds the SLA coefficient matrix from a latency matrix and a
// uniform queueing configuration, excluding pairs the SLA can never admit
// (a^lv = +Inf), per paper eq. 10.
type SLAConfig struct {
	// Mu is the per-server service rate (req/s).
	Mu float64
	// MaxDelay is the SLA latency bound d̄ applied to every pair.
	MaxDelay float64
	// ReservationRatio and Percentile are the §IV-B extensions; zero
	// values mean r = 1 and mean-delay SLA.
	ReservationRatio float64
	Percentile       float64
}

// SLAMatrix converts an L×V network latency matrix into the a^lv matrix.
func SLAMatrix(latency [][]float64, cfg SLAConfig) ([][]float64, error) {
	if len(latency) == 0 || len(latency[0]) == 0 {
		return nil, fmt.Errorf("empty latency matrix: %w", ErrBadInstance)
	}
	out := make([][]float64, len(latency))
	for l, row := range latency {
		out[l] = make([]float64, len(row))
		for v, d := range row {
			params := queue.SLAParams{
				Mu:               cfg.Mu,
				NetworkDelay:     d,
				MaxDelay:         cfg.MaxDelay,
				ReservationRatio: cfg.ReservationRatio,
				Percentile:       cfg.Percentile,
			}
			a, err := params.Coefficient()
			if err != nil {
				return nil, fmt.Errorf("pair (%d,%d): %w", l, v, err)
			}
			out[l][v] = a
		}
	}
	return out, nil
}

// NumDataCenters returns L.
func (in *Instance) NumDataCenters() int { return in.l }

// NumLocations returns V.
func (in *Instance) NumLocations() int { return in.v }

// NumPairs returns the number of feasible (l, v) pairs, i.e. the per-period
// decision dimension.
func (in *Instance) NumPairs() int { return len(in.pairs) }

// Feasible reports whether pair (l, v) can meet the SLA.
func (in *Instance) Feasible(l, v int) bool {
	if l < 0 || l >= in.l || v < 0 || v >= in.v {
		return false
	}
	return in.pairIdx[l][v] >= 0
}

// SLACoefficient returns a^lv (possibly +Inf).
func (in *Instance) SLACoefficient(l, v int) (float64, error) {
	if l < 0 || l >= in.l || v < 0 || v >= in.v {
		return 0, fmt.Errorf("pair (%d,%d) of (%d,%d): %w", l, v, in.l, in.v, ErrBadInput)
	}
	return in.a[l][v], nil
}

// Capacity returns C^l.
func (in *Instance) Capacity(l int) (float64, error) {
	if l < 0 || l >= in.l {
		return 0, fmt.Errorf("dc %d of %d: %w", l, in.l, ErrBadInput)
	}
	return in.capacity[l], nil
}

// Capacities returns a copy of the per-DC capacity vector (callers snapshot
// it before fault injection and restore it afterwards via SetCapacities).
func (in *Instance) Capacities() []float64 {
	return append([]float64(nil), in.capacity...)
}

// ReconfigWeight returns c^l.
func (in *Instance) ReconfigWeight(l int) (float64, error) {
	if l < 0 || l >= in.l {
		return 0, fmt.Errorf("dc %d of %d: %w", l, in.l, ErrBadInput)
	}
	return in.reconfig[l], nil
}

// SetCapacities updates the per-DC capacities in place. The finiteness
// pattern must match the current capacities: which DCs are capacitated
// determines the horizon QP's cached constraint structure, while the
// capacity values only enter the per-solve right-hand side. It must not be
// called concurrently with solves on the same instance. The best-response
// game uses it to move a provider's quotas between rounds without
// rebuilding the instance.
func (in *Instance) SetCapacities(caps []float64) error {
	if len(caps) != in.l {
		return fmt.Errorf("capacities %d, want %d: %w", len(caps), in.l, ErrBadInstance)
	}
	for l, c := range caps {
		if c <= 0 || math.IsNaN(c) {
			return fmt.Errorf("capacity[%d] = %g: %w", l, c, ErrBadInstance)
		}
		if math.IsInf(c, 1) != math.IsInf(in.capacity[l], 1) {
			return fmt.Errorf("capacity[%d] = %g changes the capacitated set: %w", l, c, ErrBadInstance)
		}
	}
	copy(in.capacity, caps)
	return nil
}

// State is a dense L×V server allocation, indexed x[l][v]. Infeasible
// pairs must stay at zero.
type State [][]float64

// NewState returns the all-zero allocation for the instance. The rows
// share one backing array, so building a state costs two allocations
// regardless of L — the MPC loop creates two per horizon step.
func (in *Instance) NewState() State {
	s := make(State, in.l)
	data := make([]float64, in.l*in.v)
	for l := range s {
		s[l] = data[l*in.v : (l+1)*in.v : (l+1)*in.v]
	}
	return s
}

// CheckState validates dimensions and nonnegativity against the instance.
func (in *Instance) CheckState(s State) error {
	if len(s) != in.l {
		return fmt.Errorf("state has %d DCs, want %d: %w", len(s), in.l, ErrBadInput)
	}
	for l, row := range s {
		if len(row) != in.v {
			return fmt.Errorf("state row %d has %d cols, want %d: %w", l, len(row), in.v, ErrBadInput)
		}
		for v, x := range row {
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("state[%d][%d] = %g: %w", l, v, x, ErrBadInput)
			}
			if x > 0 && in.pairIdx[l][v] < 0 {
				return fmt.Errorf("state[%d][%d] = %g on infeasible pair: %w", l, v, x, ErrBadInput)
			}
		}
	}
	return nil
}

// Clone deep-copies a state.
func (s State) Clone() State {
	out := make(State, len(s))
	for i, row := range s {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// TotalByDC returns Σ_v x^lv per data center.
func (s State) TotalByDC() []float64 {
	out := make([]float64, len(s))
	for l, row := range s {
		for _, x := range row {
			out[l] += x
		}
	}
	return out
}

// Total returns the total number of servers in the allocation.
func (s State) Total() float64 {
	var t float64
	for _, row := range s {
		for _, x := range row {
			t += x
		}
	}
	return t
}

// CostBreakdown reports the per-period cost components (paper eqs. 3–4).
type CostBreakdown struct {
	Resource float64 // H_k = Σ p^l x^lv
	Reconfig float64 // G_k = Σ c^l (u^lv)²
}

// Total returns H_k + G_k.
func (c CostBreakdown) Total() float64 { return c.Resource + c.Reconfig }

// PeriodCost computes the cost of holding allocation x at prices p (per
// DC) after applying control u (x is the post-control state; u may be nil
// for a pure holding cost).
func (in *Instance) PeriodCost(x State, u State, prices []float64) (CostBreakdown, error) {
	if err := in.CheckState(x); err != nil {
		return CostBreakdown{}, err
	}
	if len(prices) != in.l {
		return CostBreakdown{}, fmt.Errorf("prices %d, want %d: %w", len(prices), in.l, ErrBadInput)
	}
	var cb CostBreakdown
	for l := 0; l < in.l; l++ {
		for v := 0; v < in.v; v++ {
			cb.Resource += prices[l] * x[l][v]
		}
	}
	if u != nil {
		if len(u) != in.l {
			return CostBreakdown{}, fmt.Errorf("control has %d DCs, want %d: %w", len(u), in.l, ErrBadInput)
		}
		for l := 0; l < in.l; l++ {
			if len(u[l]) != in.v {
				return CostBreakdown{}, fmt.Errorf("control row %d has %d cols, want %d: %w", l, len(u[l]), in.v, ErrBadInput)
			}
			for v := 0; v < in.v; v++ {
				cb.Reconfig += in.reconfig[l] * u[l][v] * u[l][v]
			}
		}
	}
	return cb, nil
}

// DCCost is one data center's share of a period's realized cost, with
// the resource term H_k split into a local component and a
// bandwidth-latency premium: each (l, v) pair's p^l·x^lv scales by
// aBest_v/a^lv into the cost of serving the same demand share at the
// location's most SLA-efficient feasible rate, and the remainder is the
// premium paid for placing it at this (farther, higher-a) DC. The split
// partitions H_k by construction: Resource + Bandwidth over all DCs
// sums to PeriodCost's resource term (up to float rounding).
type DCCost struct {
	Resource  float64 // p·x at the location-best SLA rate
	Bandwidth float64 // premium over the location-best rate
	Reconfig  float64 // c^l Σ_v (u^lv)²
	Servers   float64 // Σ_v x^lv
}

// AttributeCost decomposes the period cost of holding x (after control
// u, which may be nil) at prices into per-DC components. The per-DC
// rows sum to PeriodCost(x, u, prices) component for component.
func (in *Instance) AttributeCost(x State, u State, prices []float64) ([]DCCost, error) {
	if err := in.CheckState(x); err != nil {
		return nil, err
	}
	if len(prices) != in.l {
		return nil, fmt.Errorf("prices %d, want %d: %w", len(prices), in.l, ErrBadInput)
	}
	if u != nil && len(u) != in.l {
		return nil, fmt.Errorf("control has %d DCs, want %d: %w", len(u), in.l, ErrBadInput)
	}
	out := make([]DCCost, in.l)
	for l := 0; l < in.l; l++ {
		dc := &out[l]
		// Infeasible pairs hold x = 0 (CheckState), so iterating the
		// support adjacency covers the whole resource sum.
		for _, pr := range in.dcPairs[l] {
			xv := x[l][pr.v]
			if xv == 0 {
				continue
			}
			r := prices[l] * xv
			local := r * (in.aBest[pr.v] * pr.aInv) // aBest/a ≤ 1
			dc.Resource += local
			dc.Bandwidth += r - local
			dc.Servers += xv
		}
		if u != nil {
			if len(u[l]) != in.v {
				return nil, fmt.Errorf("control row %d has %d cols, want %d: %w", l, len(u[l]), in.v, ErrBadInput)
			}
			for v := 0; v < in.v; v++ {
				dc.Reconfig += in.reconfig[l] * u[l][v] * u[l][v]
			}
		}
	}
	return out, nil
}

// PlacementChurn measures the fraction of served demand that moved
// between DCs from prev to cur: allocations convert to served demand
// shares (x^lv/a^lv), half the total absolute movement is the moved
// mass, and the result normalizes by the larger of the two totals —
// 0 when placements held (or either state is nil/empty), 1 when
// everything moved. Always in [0, 1].
func (in *Instance) PlacementChurn(prev, cur State) float64 {
	if len(prev) != in.l || len(cur) != in.l {
		return 0
	}
	var moved, totPrev, totCur float64
	for l := 0; l < in.l; l++ {
		for _, pr := range in.dcPairs[l] {
			sPrev := prev[l][pr.v] * pr.aInv
			sCur := cur[l][pr.v] * pr.aInv
			d := sCur - sPrev
			if d < 0 {
				d = -d
			}
			moved += d
			totPrev += sPrev
			totCur += sCur
		}
	}
	den := totPrev
	if totCur > den {
		den = totCur
	}
	if den <= 0 {
		return 0
	}
	return 0.5 * moved / den
}
