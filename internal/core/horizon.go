package core

import (
	"fmt"
	"math"

	"dspp/internal/linalg"
	"dspp/internal/qp"
)

// HorizonInput is one MPC optimization problem: from the current state X0
// at period k, choose controls u for the next W periods given forecasts.
// Demand[t][v] and Prices[t][l] refer to period k+1+t (the period shaped
// by control u_t), for t = 0..W−1.
type HorizonInput struct {
	X0     State
	Demand [][]float64 // W×V forecast demand
	Prices [][]float64 // W×L forecast prices
	// Warm optionally seeds the QP from a previously solved plan's raw
	// iterates, shifted forward by WarmShift periods: 1 chains receding-
	// horizon MPC steps, 0 re-solves the same window (best-response
	// rounds). A warm start whose shape doesn't match is ignored.
	Warm      *HorizonWarm
	WarmShift int
}

// HorizonWarm is the opaque warm-start capsule a solved Plan carries: the
// raw primal iterates (cumulative controls y_t = Σ_{τ≤t} u_τ) and
// inequality duals of its QP, plus the layout needed to validate and
// shift them for the next solve.
type HorizonWarm struct {
	y, z                    linalg.Vector
	pairs, horizon, rowsPer int
	// hs is the structure whose column layout y follows; nil for a capsule
	// imported from a checkpoint, whose y keeps the serialized time-major
	// layout (see WarmState).
	hs *horizonStruct
}

// col is the index of pair pi at step t in the capsule's y.
func (hw *HorizonWarm) col(pi, t int) int {
	if hw.hs == nil {
		return t*hw.pairs + pi
	}
	return hw.hs.col(pi, t)
}

// WarmState is the serializable form of a HorizonWarm capsule. Y is
// time-major — Y[t·pairs + pair] — whatever column order the solver
// uses, and Z follows the QP's row order. The raw iterates round-trip
// exactly through JSON (Go emits the shortest representation that
// re-parses to the same float64), so a controller restored from a
// checkpointed WarmState produces plans bit-identical to the
// uninterrupted run — the dsppd resume contract.
type WarmState struct {
	Y       []float64 `json:"y"`
	Z       []float64 `json:"z"`
	Pairs   int       `json:"pairs"`
	Horizon int       `json:"horizon"`
	RowsPer int       `json:"rows_per"`
}

// Export copies the capsule into its serializable form (nil for a nil
// capsule), permuting y into the time-major layout.
func (hw *HorizonWarm) Export() *WarmState {
	if hw == nil {
		return nil
	}
	y := make([]float64, len(hw.y))
	for t := 0; t < hw.horizon; t++ {
		for pi := 0; pi < hw.pairs; pi++ {
			y[t*hw.pairs+pi] = hw.y[hw.col(pi, t)]
		}
	}
	return &WarmState{
		Y:       y,
		Z:       append([]float64(nil), hw.z...),
		Pairs:   hw.pairs,
		Horizon: hw.horizon,
		RowsPer: hw.rowsPer,
	}
}

// ImportWarm rebuilds a capsule from its serialized form (nil for nil or
// a state with inconsistent lengths — a corrupt checkpoint degrades to a
// cold start rather than a bad warm point). The capsule keeps the
// time-major layout; the solve it seeds maps it onto its own columns.
func ImportWarm(ws *WarmState) *HorizonWarm {
	if ws == nil || len(ws.Y) != ws.Pairs*ws.Horizon || len(ws.Z) != ws.RowsPer*ws.Horizon {
		return nil
	}
	return &HorizonWarm{
		y:       append(linalg.Vector(nil), ws.Y...),
		z:       append(linalg.Vector(nil), ws.Z...),
		pairs:   ws.Pairs,
		horizon: ws.Horizon,
		rowsPer: ws.RowsPer,
	}
}

// shifted produces the QP warm start for a problem with structure hs in
// out, advancing the stored solution by shift periods, and returns it
// (nil when the capsule does not fit hs). The stored primal is
// cumulative, so shifting rebases it on the state reached after the
// applied controls: y'_t = y_{t+shift} − y_{shift−1}. Periods beyond the
// old horizon hold the last cumulative level (controls default to zero);
// dual blocks repeat the last period's, the best available guess for the
// newly revealed period. A capsule already in hs's layout and not
// shifted is handed over without copying; a shifted one is written into
// buf's vectors, allocated on first use, so a session reuses one pair.
func (hw *HorizonWarm) shifted(hs *horizonStruct, shift int, out, buf *qp.WarmStart) *qp.WarmStart {
	e, w, rowsPerStep := len(hs.pairCol), hs.w, hs.rowsPerStep
	if hw == nil || shift < 0 ||
		hw.pairs != e || hw.horizon != w || hw.rowsPer != rowsPerStep ||
		len(hw.y) != e*w || len(hw.z) != rowsPerStep*w {
		return nil
	}
	if shift == 0 && hw.hs == hs {
		out.X, out.Z = hw.y, hw.z
		return out
	}
	if buf.X == nil {
		buf.X, buf.Z = linalg.NewVector(hs.n), linalg.NewVector(rowsPerStep*w)
	}
	x, z := buf.X, buf.Z
	base := shift - 1
	if base > w-1 {
		base = w - 1
	}
	for t := 0; t < w; t++ {
		src := t + shift
		if src > w-1 {
			src = w - 1
		}
		for pi := 0; pi < e; pi++ {
			v := hw.y[hw.col(pi, src)]
			if shift > 0 {
				v -= hw.y[hw.col(pi, base)]
			}
			x[hs.col(pi, t)] = v
		}
		copy(z[t*rowsPerStep:(t+1)*rowsPerStep], hw.z[src*rowsPerStep:(src+1)*rowsPerStep])
	}
	out.X, out.Z = x, z
	return out
}

// Plan is the solved horizon: the control sequence, the resulting state
// trajectory, the predicted cost, and the constraint duals that the
// competition game consumes.
type Plan struct {
	// U[t] is the planned control for period k+t (only U[0] is applied
	// by MPC).
	U []State
	// X[t] is the planned state at period k+1+t.
	X []State
	// Objective is the predicted horizon cost Σ p·x + Σ c·u² including
	// the holding cost of the planned states.
	Objective float64
	// CapacityDuals[t][l] is the dual of DC l's capacity constraint at
	// horizon step t (zero for uncapacitated DCs).
	CapacityDuals [][]float64
	// DemandDuals[t][v] is the dual of location v's demand constraint.
	DemandDuals [][]float64
	// QPIterations reports interior-point iterations used.
	QPIterations int
	// Loose marks a plan whose solve ran to the iteration cap and was
	// accepted at the solver's loosened tolerance (qp.Result.Loose).
	Loose bool
	// Shed[t][v] is the demand shed at horizon step t for location v; nil
	// unless the plan came from the soft-constrained relaxation (see
	// newHorizonSession).
	Shed [][]float64
	// Warm carries the raw QP iterates for warm-starting the next solve
	// over the same instance layout (see HorizonInput.Warm).
	Warm *HorizonWarm
	// Anytime is the solver's iterate-quality metadata when this plan is a
	// deadline-interrupted partial iterate (see qp.ErrDeadline); nil for
	// every fully converged plan.
	Anytime *qp.AnytimeInfo
}

// TotalShed sums the shed demand over the whole horizon (zero for plans
// from the hard-constrained solve).
func (p *Plan) TotalShed() float64 {
	var t float64
	for _, row := range p.Shed {
		for _, s := range row {
			t += s
		}
	}
	return t
}

// Horizon returns len(plan.U).
func (p *Plan) Horizon() int { return len(p.U) }

// TotalCapacityDuals sums the capacity duals over the horizon per DC —
// the λ^il quantity reported to the infrastructure provider in the
// paper's Algorithm 2.
func (p *Plan) TotalCapacityDuals() []float64 {
	if len(p.CapacityDuals) == 0 {
		return nil
	}
	out := make([]float64, len(p.CapacityDuals[0]))
	p.TotalCapacityDualsInto(out)
	return out
}

// TotalCapacityDualsInto is TotalCapacityDuals into caller storage: dst
// is zeroed and accumulated in place, so per-round game loops reuse one
// buffer instead of allocating. dst must have one entry per DC.
func (p *Plan) TotalCapacityDualsInto(dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for _, row := range p.CapacityDuals {
		for l, d := range row {
			dst[l] += d
		}
	}
}

// DefaultShedPenalty is the linear cost per unit of shed demand per
// period in the soft relaxation, and the price attribution imputes to
// shed demand. It is several orders of magnitude above
// the realistic per-request serving cost (price × SLA coefficient, ~1e-3),
// so demand is shed only when the hard constraints genuinely cannot hold.
const DefaultShedPenalty = 1e3

// softQuadPenalty is the small quadratic term on the shed variables. It
// keeps the soft QP strictly convex (unique optimum, well-conditioned KKT)
// without materially changing which demand is shed. It is a fixed constant
// because it enters the cached quadratic term.
const softQuadPenalty = 1e-3

// fillHorizonVectors writes the horizon QP's cost and right-hand-side
// vectors for the given input and returns the constant holding cost of
// x0, in place into the session problem's vectors, so every solve of a
// session rewrites the O(n) data and nothing else. The soft structure's
// shed columns cost DefaultShedPenalty.
func (in *Instance) fillHorizonVectors(hs *horizonStruct, input HorizonInput, cVec, hVec linalg.Vector) float64 {
	w := hs.w
	// Linear term: the holding cost p_t·x_t is simply Prices[t][l] per
	// cumulative variable (no suffix sums needed in y-space).
	for pi, pr := range in.pairs {
		for t := 0; t < w; t++ {
			cVec[hs.col(pi, t)] = input.Prices[t][pr.l]
		}
	}
	if hs.soft {
		for v := 0; v < in.v; v++ {
			for t := 0; t < w; t++ {
				cVec[hs.shed(v, t)] = DefaultShedPenalty
			}
		}
	}
	// Sunk holding cost of x0 carried through the horizon (constant).
	var constCost float64
	for t := 0; t < w; t++ {
		for _, pr := range in.pairs {
			constCost += input.Prices[t][pr.l] * input.X0[pr.l][pr.v]
		}
	}

	// Right-hand sides, in the fixed row order of the cached G (per step:
	// demand, capacity, nonnegativity, then shed nonnegativity when soft —
	// see horizonStructure).
	row := 0
	for t := 0; t < w; t++ {
		// Demand: −Σ_{e∈v} y_t^e / a_e (− s_t^v) ≤ −D + Σ_{e∈v} x0_e/a_e.
		// The compressed support lists walk only the feasible pairs instead
		// of scanning the L×V grid.
		for v := 0; v < in.v; v++ {
			rhs := -input.Demand[t][v]
			for _, pr := range in.locPairs[v] {
				rhs += input.X0[pr.l][v] * pr.aInv
			}
			hVec[row] = rhs
			row++
		}
		// Capacity: Σ_{e∈l} y_t ≤ C_l − Σ_{e∈l} x0.
		for _, l := range hs.capacitated {
			rhs := in.capacity[l]
			for _, pr := range in.dcPairs[l] {
				rhs -= input.X0[l][pr.v]
			}
			hVec[row] = rhs
			row++
		}
		// Nonnegativity: −y_t^e ≤ x0_e.
		for _, pr := range in.pairs {
			hVec[row] = input.X0[pr.l][pr.v]
			row++
		}
		// Shed nonnegativity: −s_t^v ≤ 0.
		if hs.soft {
			for v := 0; v < in.v; v++ {
				hVec[row] = 0
				row++
			}
		}
	}
	return constCost
}

// planArena is the backing storage of one reconstructed Plan and its warm
// capsule, double-buffered by HorizonSession. It is laid out once, at its
// first solve (layoutPlan): one float block holding every state, dual and
// shed row, the row headers that index it, the Plan's slices and the
// capsule's shape. Each later solve only writes values (buildPlan), and it
// writes every value the plan exposes — the entries no control can move
// and the duals of uncapacitated DCs as explicit zeros — so whatever a
// caller wrote into an earlier plan's values (projectPlanCapacity rewrites
// U, X and Objective in place) is gone, and a reused arena yields a Plan
// bitwise identical to a fresh one. Callers may rewrite a plan's values,
// never its slices.
type planArena struct {
	plan Plan
	warm HorizonWarm
}

// layoutPlan carves ar's plan for hs: the whole plan — 2W states plus the
// dual (and shed) tables — out of one float block and one row-header
// block, a fixed handful of allocations instead of O(W·L) small ones. A
// hard plan points at the arena's capsule, whose shape is fixed here.
func (in *Instance) layoutPlan(hs *horizonStruct, ar *planArena) {
	w := hs.w
	nf := w * (2*in.l*in.v + in.v + in.l)
	nr := 2*w*in.l + 2*w
	if hs.soft {
		nf += w * in.v
		nr += w
	}
	floats, rows, states := make([]float64, nf), make([][]float64, nr), make([]State, 2*w)
	takeRow := func(k int) []float64 {
		r := floats[:k:k]
		floats = floats[k:]
		return r
	}
	takeState := func() State {
		s := State(rows[:in.l:in.l])
		rows = rows[in.l:]
		for l := range s {
			s[l] = takeRow(in.v)
		}
		return s
	}
	plan := &ar.plan
	plan.U, plan.X = states[:w:w], states[w:]
	plan.CapacityDuals, plan.DemandDuals = rows[:w:w], rows[w:2*w:2*w]
	rows = rows[2*w:]
	if hs.soft {
		plan.Shed = rows[:w:w]
		rows = rows[w:]
	} else {
		ar.warm = HorizonWarm{pairs: len(in.pairs), horizon: w, rowsPer: hs.rowsPerStep, hs: hs}
		plan.Warm = &ar.warm
	}
	for t := 0; t < w; t++ {
		plan.U[t] = takeState()
		plan.X[t] = takeState()
		if hs.soft {
			plan.Shed[t] = takeRow(in.v)
		}
		plan.DemandDuals[t] = takeRow(in.v)
		plan.CapacityDuals[t] = takeRow(in.l)
	}
}

// buildPlan reconstructs the trajectory, duals, and warm capsule (the
// shed table instead of a capsule for the soft structure) from a solved
// horizon QP into the arena, laying it out at its first use.
func (in *Instance) buildPlan(hs *horizonStruct, input HorizonInput, res *qp.Result, constCost float64, ar *planArena) *Plan {
	plan := &ar.plan
	if plan.U == nil {
		in.layoutPlan(hs, ar)
	}
	plan.Objective = res.Objective + constCost
	plan.QPIterations = res.Iterations
	plan.Loose = res.Loose
	plan.Anytime = nil
	if !hs.soft {
		ar.warm.y, ar.warm.z = res.X, res.IneqDuals
	}
	// Trajectory reconstruction: each state starts as a copy of its
	// predecessor (X0 itself is only read, never cloned) and each control
	// as zeros, and only the feasible pairs — the only entries a control
	// can move — are updated. The QP primal is cumulative, so the control
	// is the difference of consecutive levels: u_t = y_t − y_{t−1}. Rows
	// are short (one location per Fig 7 provider), so plain loops beat the
	// runtime calls of copy and clear.
	prev := input.X0
	rowsPerStep := hs.rowsPerStep
	for t := 0; t < hs.w; t++ {
		u, x := plan.U[t], plan.X[t]
		for l, xr := range x {
			ur, pr := u[l], prev[l][:len(xr)]
			for v := range xr {
				xr[v], ur[v] = pr[v], 0
			}
		}
		for pi, pr := range in.pairs {
			uv := res.X[hs.col(pi, t)]
			if t > 0 {
				uv -= res.X[hs.col(pi, t-1)]
			}
			u[pr.l][pr.v] = uv
			xv := x[pr.l][pr.v] + uv
			// Clamp the tiny interior-point slack so states stay
			// exactly feasible for downstream consumers.
			if xv < 0 {
				xv = 0
			}
			x[pr.l][pr.v] = xv
		}
		prev = x

		if hs.soft {
			shed := plan.Shed[t]
			for v := range shed {
				// Clamp the tiny interior-point slack so zero shed reports
				// as exactly zero.
				s := res.X[hs.shed(v, t)]
				if !(s > 1e-9) {
					s = 0
				}
				shed[v] = s
			}
		}

		// Dual extraction follows the fixed row layout: step t's block
		// starts at t·rowsPerStep with the V demand rows, then one row per
		// capacitated DC.
		base := t * rowsPerStep
		copy(plan.DemandDuals[t], res.IneqDuals[base:base+in.v])
		capDuals := plan.CapacityDuals[t]
		for l := range capDuals {
			capDuals[l] = 0
		}
		for ci, l := range hs.capacitated {
			capDuals[l] = res.IneqDuals[base+in.v+ci]
		}
	}
	return plan
}

// horizonStruct is the data-independent part of the horizon QP for one
// horizon length, hard or soft: the column layout, the quadratic term, the
// sparse constraint matrix, its linking rows, and the row layout. Q's
// entries depend only on the reconfiguration weights, G's only on the SLA
// coefficients and on which DCs are capacitated; demand, prices, the
// initial state, and the capacity values enter solely through the O(n)
// cost and right-hand-side vectors rebuilt per solve.
type horizonStruct struct {
	w    int
	soft bool
	n    int
	// q is the quadratic term in packed band storage; its bandwidth is the
	// KKT band of everything but the linking rows.
	q *linalg.BandMatrix
	g *linalg.SparseMatrix
	// linking lists the rows of g kept out of the band factor: the
	// capacity rows of capacitated DCs that serve more than one location,
	// the only rows that couple location blocks.
	linking []int
	// sym is the solver's symbolic phase for (q, g, linking), shared by
	// every session on this structure.
	sym *qp.Structure
	// capacitated lists the DCs with finite capacity, ascending — the
	// order their rows appear within each step's block.
	capacitated []int
	// rowsPerStep = V demand rows + len(capacitated) + E nonnegativity
	// (+ V shed nonnegativity when soft).
	rowsPerStep int
	// Column layout: pair pi at step t is column pairCol[pi] +
	// t·pairStride[pi]; when soft, location v's shed at step t is
	// shedCol[v] + t·shedStride[v].
	pairCol, pairStride []int
	shedCol, shedStride []int
}

// problem is the structure's QP with cost c and right-hand side h.
func (hs *horizonStruct) problem(c, h linalg.Vector) qp.Problem {
	return qp.Problem{Q: hs.q, C: c, G: hs.g, H: h, Linking: hs.linking, Structure: hs.sym}
}

// col is the QP column of pair pi at horizon step t.
func (hs *horizonStruct) col(pi, t int) int { return hs.pairCol[pi] + t*hs.pairStride[pi] }

// shed is the QP column of location v's shed at step t (soft only).
func (hs *horizonStruct) shed(v, t int) int { return hs.shedCol[v] + t*hs.shedStride[v] }

// horizonKey names one cached structure.
type horizonKey struct {
	w    int
	soft bool
}

// horizonStructure returns the cached structure for horizon length w
// (with one shed column per location and step when soft), building it on
// first use.
//
// State-space formulation: the decision variable for (t, pair) is the
// cumulative control y_t = Σ_{τ≤t} u_τ — the planned state relative to
// x0 — instead of the raw control u_t. Every constraint on the planned
// state x_t = x0 + y_t then touches only step t, and the reconfiguration
// term couples only consecutive steps of one pair. The two formulations
// are related by an invertible change of variables, so optimum,
// objective, and constraint duals coincide.
//
// Block-angular layout: the demand rows (eq. 10), the reconfiguration
// terms and the nonnegativity rows each involve one location, so columns
// are ordered in location blocks — location v's p_v pairs (plus its shed)
// over all W steps, time-major inside the block: column
// blockStart(v) + t·p_v + j. Q and those rows are then block diagonal
// with half-bandwidth p_v (p_v − 1 at W = 1), a handful at any scale. The
// only coupling left is the capacity rows of capacitated DCs serving more
// than one location; they are declared linking rows and the solver
// handles them through a C·W Schur complement (see qp.Problem). The old
// time-major order (t·E + pair) made the band as wide as the pair count E.
// A single-location instance — every Fig 7 provider — has one block, so
// its column order is exactly the time-major one and it has no linking
// rows. Row order is per step: demand, capacity, nonnegativity (then shed
// nonnegativity when soft).
func (in *Instance) horizonStructure(w int, soft bool) (*horizonStruct, error) {
	in.qpMu.Lock()
	defer in.qpMu.Unlock()
	key := horizonKey{w: w, soft: soft}
	if hs, ok := in.qpCache[key]; ok {
		return hs, nil
	}

	e := len(in.pairs)
	hs := &horizonStruct{w: w, soft: soft, pairCol: make([]int, e), pairStride: make([]int, e)}
	extra := 0
	if soft {
		extra = 1
		hs.shedCol = make([]int, in.v)
		hs.shedStride = make([]int, in.v)
	}
	widest := 0
	for v := 0; v < in.v; v++ {
		b := len(in.locPairs[v]) + extra
		for j, pr := range in.locPairs[v] {
			hs.pairCol[pr.idx] = hs.n + j
			hs.pairStride[pr.idx] = b
		}
		if soft {
			hs.shedCol[v] = hs.n + b - 1
			hs.shedStride[v] = b
		}
		hs.n += b * w
		if b > widest {
			widest = b
		}
	}
	// Q reaches one block row ahead (step t to t+1); a demand row spans
	// one block row. A one-step horizon has only the latter.
	bw := widest - 1
	if w > 1 {
		bw = widest
	}

	// Quadratic term: Σ_t c^l (y_t − y_{t−1})², y_{−1} = 0 — in the
	// ½ yᵀQy convention diag 4c (2c on the final step, which no later
	// difference references) and −2c between consecutive steps of the
	// same pair; the soft structure adds a small fixed regularizer on the
	// sheds.
	qMat := linalg.NewBandMatrix(hs.n, bw)
	var err error
	set := func(i, j int, v float64) {
		if e := qMat.Set(i, j, v); e != nil && err == nil {
			err = e
		}
	}
	for pi, pr := range in.pairs {
		c2 := 2 * in.reconfig[pr.l]
		for t := 0; t < w; t++ {
			idx := hs.col(pi, t)
			if t < w-1 {
				set(idx, idx, 2*c2)
				set(idx+hs.pairStride[pi], idx, -c2)
			} else {
				set(idx, idx, c2)
			}
		}
	}
	if soft {
		for v := 0; v < in.v; v++ {
			for t := 0; t < w; t++ {
				idx := hs.shed(v, t)
				set(idx, idx, 2*softQuadPenalty)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("horizon quadratic term: %w", err)
	}

	// Inequality rows, per horizon step t: demand (V), capacity
	// (capacitated DCs), nonnegativity (E), shed nonnegativity (V, soft).
	// The matrix is emitted in CSR form directly, so KKT assembly inside
	// the solver runs on nonzeros only.
	capacitated := make([]int, 0, in.l)
	capPairs := 0
	for l := 0; l < in.l; l++ {
		if !math.IsInf(in.capacity[l], 1) {
			capacitated = append(capacitated, l)
			capPairs += len(in.dcPairs[l])
		}
	}
	rowsPerStep := in.v + len(capacitated) + e + extra*in.v
	gb := linalg.NewSparseBuilder(w*rowsPerStep, hs.n, (2*e+capPairs+2*extra*in.v)*w)
	row := 0
	for t := 0; t < w; t++ {
		for v := 0; v < in.v; v++ {
			gb.StartRow()
			for _, pr := range in.locPairs[v] {
				gb.Add(hs.col(pr.idx, t), -pr.aInv)
			}
			if soft {
				gb.Add(hs.shed(v, t), -1)
			}
			row++
		}
		for _, l := range capacitated {
			gb.StartRow()
			for _, pr := range in.dcPairs[l] {
				gb.Add(hs.col(pr.idx, t), 1)
			}
			if len(in.dcPairs[l]) > 1 {
				hs.linking = append(hs.linking, row)
			}
			row++
		}
		for pi := range in.pairs {
			gb.StartRow()
			gb.Add(hs.col(pi, t), -1)
			row++
		}
		for v := 0; v < extra*in.v; v++ {
			gb.StartRow()
			gb.Add(hs.shed(v, t), -1)
			row++
		}
	}
	gMat, err := gb.Build()
	if err != nil {
		return nil, fmt.Errorf("horizon constraint assembly: %w", err)
	}

	hs.q, hs.g, hs.capacitated, hs.rowsPerStep = qMat, gMat, capacitated, rowsPerStep
	hs.sym, err = qp.Analyze(&qp.Problem{Q: qMat, G: gMat, Linking: hs.linking})
	if err != nil {
		return nil, fmt.Errorf("horizon QP analysis: %w", err)
	}
	if in.qpCache == nil {
		in.qpCache = make(map[horizonKey]*horizonStruct)
	}
	in.qpCache[key] = hs
	return hs, nil
}

// checkHorizonInput validates a horizon problem's dimensions and values and
// returns the horizon length. With ceiling set it additionally runs the
// cheap necessary feasibility check — even granting location v every
// feasible DC's full capacity, the demand must fit — which catches the
// common misconfiguration (demand beyond physical capacity) with a clear
// error instead of a QP solver failure. The soft relaxation skips that
// check: excess demand is exactly what its slack variables absorb.
func (in *Instance) checkHorizonInput(input HorizonInput, ceiling bool) (int, error) {
	w := len(input.Demand)
	if w == 0 {
		return 0, fmt.Errorf("empty horizon: %w", ErrBadInput)
	}
	if len(input.Prices) != w {
		return 0, fmt.Errorf("prices horizon %d, demand horizon %d: %w", len(input.Prices), w, ErrBadInput)
	}
	if err := in.CheckState(input.X0); err != nil {
		return 0, err
	}
	for t := 0; t < w; t++ {
		if len(input.Demand[t]) != in.v {
			return 0, fmt.Errorf("demand[%d] has %d locations, want %d: %w", t, len(input.Demand[t]), in.v, ErrBadInput)
		}
		if len(input.Prices[t]) != in.l {
			return 0, fmt.Errorf("prices[%d] has %d DCs, want %d: %w", t, len(input.Prices[t]), in.l, ErrBadInput)
		}
		for v, d := range input.Demand[t] {
			if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				return 0, fmt.Errorf("demand[%d][%d] = %g: %w", t, v, d, ErrBadInput)
			}
		}
		for l, p := range input.Prices[t] {
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return 0, fmt.Errorf("prices[%d][%d] = %g: %w", t, l, p, ErrBadInput)
			}
		}
		if !ceiling {
			continue
		}
		for v := 0; v < in.v; v++ {
			var ceil float64
			for _, pr := range in.locPairs[v] {
				if math.IsInf(in.capacity[pr.l], 1) {
					ceil = math.Inf(1)
					break
				}
				ceil += in.capacity[pr.l] * pr.aInv
			}
			if input.Demand[t][v] > ceil {
				return 0, fmt.Errorf(
					"demand[%d][%d] = %g exceeds the %g req/s ceiling of its feasible DCs: %w",
					t, v, input.Demand[t][v], ceil, ErrInfeasible)
			}
		}
	}
	return w, nil
}
