package telemetry

import (
	"sync/atomic"
)

// Metric names for the provenance layer. The cost components export as
// one labeled counter family (dspp_cost_component_total{component=...})
// so the four shares stay mutually comparable in a single query.
const (
	MetricCostComponent       = "dspp_cost_component_total"
	MetricPlacementChurn      = "dspp_placement_churn"
	MetricDaemonPeriodSeconds = "dspp_daemon_period_seconds"
	MetricBudgetUtilization   = "dspp_budget_utilization"
)

// Label values of the dspp_cost_component_total counter family, and the
// JSON keys of the /statusz rollup. The four partition a period's
// attributed cost: components sum to Attribution.Total by construction.
const (
	ComponentResource  = "resource"
	ComponentBandwidth = "bandwidth"
	ComponentReconfig  = "reconfig"
	ComponentShed      = "shed"
)

// ChurnBuckets is the fixed layout of the placement-churn histogram: the
// fraction of served demand that moved DCs between consecutive periods
// (0 = placements held, 1 = everything moved).
var ChurnBuckets = []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1}

// PeriodSecondsBuckets covers daemon period wall times from sub-ms toy
// instances to multi-second continental coordinations.
var PeriodSecondsBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// BudgetUtilizationBuckets covers wall/budget ratios; the >1 buckets are
// the overrun tail the deadline ladder is meant to keep empty.
var BudgetUtilizationBuckets = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1, 1.25, 1.5, 2}

// CheckpointSecondsBuckets covers daemon checkpoint saves, from a few
// microseconds for a small record in the page cache to a slow disk.
var CheckpointSecondsBuckets = []float64{5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 0.01, 0.1}

// DefaultAttributionDepth is the ring-buffer capacity: the last N
// periods a Hub retains for /statusz.
const DefaultAttributionDepth = 256

// DCAttribution is one data center's share of a period's attributed
// cost, together with the capacity dual price the QP solution put on
// that DC's capacity constraint.
type DCAttribution struct {
	DC int `json:"dc"`

	// Resource + Bandwidth partition the period's H_k share at this
	// DC: Resource is the cost of serving each location at its most
	// SLA-efficient feasible DC rate, Bandwidth the premium actually
	// paid for the (location, DC) assignments chosen.
	Resource  float64 `json:"resource"`
	Bandwidth float64 `json:"bandwidth"`
	Reconfig  float64 `json:"reconfig"`

	Servers float64 `json:"servers"` // x summed over locations served here
	Dual    float64 `json:"dual"`    // horizon-summed capacity dual price
	Quota   float64 `json:"quota"`   // capacity the solve actually enforced
	Binding bool    `json:"binding"` // capacity constraint active (dual > tol)
}

// Attribution decomposes one MPC period's realized cost. Resource,
// Bandwidth, Reconfig and Shed always sum to Total: the first three are
// the realized period cost split per component, Shed is the imputed
// cost of demand the degradation ladder shed (zero on clean periods).
type Attribution struct {
	Period int `json:"period"`

	Resource  float64 `json:"resource"`
	Bandwidth float64 `json:"bandwidth"`
	Reconfig  float64 `json:"reconfig"`
	Shed      float64 `json:"shed"`
	Total     float64 `json:"total"`

	Churn      float64 `json:"churn"`                 // fraction of served demand that moved DCs
	ShedDemand float64 `json:"shed_demand,omitempty"` // req/s shed this period
	Mode       string  `json:"mode"`                  // degradation ladder outcome
	Loose      bool    `json:"loose,omitempty"`       // solve accepted at the loosened tolerance
	WallUS     int64   `json:"wall_us"`               // solve wall time

	DCs []DCAttribution `json:"dcs,omitempty"`
}

// ComponentSum returns Resource+Bandwidth+Reconfig+Shed; the identity
// guard asserts it equals Total within 1e-9 relative.
func (a *Attribution) ComponentSum() float64 {
	return a.Resource + a.Bandwidth + a.Reconfig + a.Shed
}

// Binding returns the DCs whose capacity constraint was active.
func (a *Attribution) Binding() []int {
	var out []int
	for i := range a.DCs {
		if a.DCs[i].Binding {
			out = append(out, a.DCs[i].DC)
		}
	}
	return out
}

// AttributionRing retains the last N Attribution records without locks:
// writers publish immutable records through an atomic slot pointer and
// claim slots with one atomic add, readers snapshot whatever subset is
// currently published. Records must not be mutated after Record.
type AttributionRing struct {
	buf []atomic.Pointer[Attribution]
	seq atomic.Uint64 // number of records ever written
}

// NewAttributionRing returns a ring retaining the last depth records
// (DefaultAttributionDepth when depth <= 0).
func NewAttributionRing(depth int) *AttributionRing {
	if depth <= 0 {
		depth = DefaultAttributionDepth
	}
	return &AttributionRing{buf: make([]atomic.Pointer[Attribution], depth)}
}

// Record publishes a record, evicting the oldest when full. Nil-safe;
// safe for concurrent writers.
func (r *AttributionRing) Record(a *Attribution) {
	if r == nil || a == nil {
		return
	}
	idx := r.seq.Add(1) - 1
	r.buf[idx%uint64(len(r.buf))].Store(a)
}

// Depth returns the ring capacity (0 on nil).
func (r *AttributionRing) Depth() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Periods returns how many records were ever written (not how many are
// retained).
func (r *AttributionRing) Periods() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Last returns the most recently published record (nil when empty).
func (r *AttributionRing) Last() *Attribution {
	if r == nil {
		return nil
	}
	n := r.seq.Load()
	if n == 0 {
		return nil
	}
	return r.buf[(n-1)%uint64(len(r.buf))].Load()
}

// Snapshot returns the retained records oldest-first. Under concurrent
// writes a slot can be observed mid-rotation; the published pointers
// themselves are always whole records.
func (r *AttributionRing) Snapshot() []*Attribution {
	if r == nil {
		return nil
	}
	n := r.seq.Load()
	depth := uint64(len(r.buf))
	start := uint64(0)
	if n > depth {
		start = n - depth
	}
	out := make([]*Attribution, 0, n-start)
	for i := start; i < n; i++ {
		if a := r.buf[i%depth].Load(); a != nil {
			out = append(out, a)
		}
	}
	return out
}

// AttributionSink is the pre-resolved provenance surface a control loop
// records into once per period: the ring buffer behind /statusz plus the
// component counters and churn histogram. A nil sink (telemetry
// disabled) swallows everything; nothing here is on the QP solve path.
type AttributionSink struct {
	ring *AttributionRing

	resource  *Counter
	bandwidth *Counter
	reconfig  *Counter
	shed      *Counter
	churn     *Histogram
}

// Record publishes one period's attribution to the ring and the metrics.
func (s *AttributionSink) Record(a *Attribution) {
	if s == nil || a == nil {
		return
	}
	s.ring.Record(a)
	s.resource.Add(a.Resource)
	s.bandwidth.Add(a.Bandwidth)
	s.reconfig.Add(a.Reconfig)
	s.shed.Add(a.Shed)
	s.churn.Observe(a.Churn)
}

// Ring returns the sink's ring buffer (nil on a nil sink).
func (s *AttributionSink) Ring() *AttributionRing {
	if s == nil {
		return nil
	}
	return s.ring
}

// Attribution returns the hub's provenance sink, resolving the ring and
// every metric once and caching the result (nil on a nil hub).
func (h *Hub) Attribution() *AttributionSink {
	if h == nil {
		return nil
	}
	h.attrOnce.Do(func() {
		vec := h.reg.CounterVec(MetricCostComponent, "component")
		h.attr = &AttributionSink{
			ring:      NewAttributionRing(DefaultAttributionDepth),
			resource:  vec.With(ComponentResource),
			bandwidth: vec.With(ComponentBandwidth),
			reconfig:  vec.With(ComponentReconfig),
			shed:      vec.With(ComponentShed),
			churn:     h.reg.Histogram(MetricPlacementChurn, ChurnBuckets),
		}
	})
	return h.attr
}
