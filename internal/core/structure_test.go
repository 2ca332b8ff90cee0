package core_test

import (
	"math"
	"sync"
	"testing"

	"dspp"
	"dspp/internal/core"
	"dspp/internal/qp"
	"dspp/internal/topology"
)

// paperInstance is the dsppd paper setup: four capacitated DCs (San Jose,
// Houston, Atlanta, Chicago) and the first eight US metros that host none.
func paperInstance(t *testing.T) *core.Instance {
	t.Helper()
	var dcs, metros []topology.City
	for _, name := range []string{"San Jose", "Houston", "Atlanta", "Chicago"} {
		c, ok := topology.CityByName(name)
		if !ok {
			t.Fatalf("missing city %q", name)
		}
		dcs = append(dcs, c)
	}
	for _, c := range topology.USCities() {
		hosts := false
		for _, d := range dcs {
			hosts = hosts || d.Name == c.Name
		}
		if !hosts && len(metros) < 8 {
			metros = append(metros, c)
		}
	}
	net, err := topology.BuildGeo(dcs, metros, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	sla, err := core.SLAMatrix(net.LatencyMatrix(), core.SLAConfig{Mu: 150, MaxDelay: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(core.Config{
		SLA:             sla,
		ReconfigWeights: []float64{2e-5, 2e-5, 2e-5, 2e-5},
		Capacities:      []float64{2000, 2000, 2000, 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// continentalInstance is the n120 / 12-DC continental scenario instance.
func continentalInstance(t *testing.T) *core.Instance {
	t.Helper()
	scn, err := dspp.NewContinentalScenario(dspp.ContinentalScenarioConfig{Locations: 120, DCSites: 12, Seed: 42, Horizon: 2})
	if err != nil {
		t.Fatal(err)
	}
	return scn.Inst
}

// fig7Provider is a Fig 7 best-response provider's instance: one customer
// location, a capacitated cheap DC and an uncapacitated overflow DC.
func fig7Provider(t *testing.T) *core.Instance {
	t.Helper()
	inst, err := core.NewInstance(core.Config{
		SLA:             [][]float64{{0.0071}, {0.0083}},
		ReconfigWeights: []float64{5e-5, 5e-5},
		Capacities:      []float64{3000, math.Inf(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// pairList enumerates an instance's feasible (l, v) pairs in the dense
// pair order (DC-major).
func pairList(inst *core.Instance) [][2]int {
	var out [][2]int
	for l := 0; l < inst.NumDataCenters(); l++ {
		for v := 0; v < inst.NumLocations(); v++ {
			if inst.Feasible(l, v) {
				out = append(out, [2]int{l, v})
			}
		}
	}
	return out
}

// checkStructure asserts the band and linking contract of one horizon
// structure: Q equals the reconfiguration term rebuilt from the column
// map (so no entry fell outside the declared band), every row of G that
// is not a linking row spans at most the band (so G_bandᵀG_band fits),
// and the linking rows are exactly the capacity rows of capacitated DCs
// that serve more than one location.
func checkStructure(t *testing.T, name string, inst *core.Instance, w int, soft bool) *core.HorizonLayout {
	t.Helper()
	lay, err := inst.HorizonLayoutForTest(w, soft)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	bw := lay.Q.Bandwidth()
	pairs := pairList(inst)
	n := lay.Q.N()
	want := make(map[[2]int]float64)
	for pi, pr := range pairs {
		c, _ := inst.ReconfigWeight(pr[0])
		for tt := 0; tt < w; tt++ {
			i := lay.Col(pi, tt)
			if tt < w-1 {
				want[[2]int{i, i}] += 4 * c
				j := lay.Col(pi, tt+1)
				want[[2]int{j, i}] -= 2 * c
			} else {
				want[[2]int{i, i}] += 2 * c
			}
		}
	}
	for key, v := range want {
		if key[0]-key[1] > bw {
			t.Fatalf("%s: Q(%d,%d) = %g lies outside the declared band %d", name, key[0], key[1], v, bw)
		}
		if got := lay.Q.At(key[0], key[1]); got != v {
			t.Fatalf("%s: Q(%d,%d) = %g, want %g", name, key[0], key[1], got, v)
		}
	}
	for i := 0; i < n; i++ {
		for j := max(0, i-bw); j <= i; j++ {
			if v := lay.Q.At(i, j); v != 0 && want[[2]int{i, j}] == 0 && !soft {
				t.Fatalf("%s: stray Q(%d,%d) = %g", name, i, j, v)
			}
		}
	}

	served := make([]int, inst.NumDataCenters())
	for l := range served {
		for v := 0; v < inst.NumLocations(); v++ {
			if inst.Feasible(l, v) {
				served[l]++
			}
		}
	}
	linking := make(map[int]bool)
	for _, r := range lay.Linking {
		linking[r] = true
	}
	wantLinks := 0
	for tt := 0; tt < w; tt++ {
		for ci, l := range lay.Capacitated {
			row := tt*lay.RowsPerStep + inst.NumLocations() + ci
			if got, want := linking[row], served[l] > 1; got != want {
				t.Fatalf("%s: capacity row %d (DC %d, serves %d locations) linking=%t, want %t",
					name, row, l, served[l], got, want)
			}
			if served[l] > 1 {
				wantLinks++
			}
		}
	}
	if len(lay.Linking) != wantLinks {
		t.Fatalf("%s: %d linking rows, want %d (capacity rows only)", name, len(lay.Linking), wantLinks)
	}
	for r := 0; r < lay.G.Rows(); r++ {
		cols, _ := lay.G.RowEntries(r)
		if linking[r] || len(cols) == 0 {
			continue
		}
		if span := cols[len(cols)-1] - cols[0]; span > bw {
			t.Fatalf("%s: band row %d spans %d columns, band %d", name, r, span, bw)
		}
	}
	return lay
}

// TestHorizonStructureGuard pins the block-angular layout the solver's
// band declaration relies on, for the paper instance, the n120 instance and
// a Fig 7 provider, hard and soft. A band narrower than the structure
// would make the band factor silently wrong, so the contract is checked
// against the instance, not against the builder's own bookkeeping.
func TestHorizonStructureGuard(t *testing.T) {
	paper := paperInstance(t)
	for _, soft := range []bool{false, true} {
		lay := checkStructure(t, "paper", paper, 5, soft)
		if !soft && (len(lay.Linking) == 0 || lay.Q.Bandwidth() > 4) {
			t.Fatalf("paper: %d linking rows, band %d; want linking rows and a band of at most 4",
				len(lay.Linking), lay.Q.Bandwidth())
		}
		lay = checkStructure(t, "n120", continentalInstance(t), 2, soft)
		if !soft && lay.Q.Bandwidth() > 6 {
			t.Fatalf("n120: band %d, want at most 6", lay.Q.Bandwidth())
		}
		for _, w := range []int{1, 3} {
			prov := fig7Provider(t)
			lay := checkStructure(t, "fig7 provider", prov, w, soft)
			if len(lay.Linking) != 0 {
				t.Fatalf("fig7 provider: %d linking rows, want none", len(lay.Linking))
			}
			e := prov.NumPairs()
			stride := e
			if soft {
				stride = e + 1 // the shed column closes each step's block
			}
			for pi := 0; pi < e; pi++ {
				for tt := 0; tt < w; tt++ {
					if got := lay.Col(pi, tt); got != tt*stride+pi {
						t.Fatalf("fig7 provider W=%d soft=%t: pair %d step %d at column %d, want the time-major %d",
							w, soft, pi, tt, got, tt*stride+pi)
					}
				}
			}
		}
	}
}

// planDigest flattens everything a plan reports — objective, iterations,
// controls, states and duals — for bitwise comparison.
func planDigest(p *core.Plan) []float64 {
	out := []float64{p.Objective, float64(p.QPIterations)}
	for t := range p.U {
		for l := range p.U[t] {
			out = append(out, p.U[t][l]...)
			out = append(out, p.X[t][l]...)
		}
		out = append(out, p.CapacityDuals[t]...)
		out = append(out, p.DemandDuals[t]...)
	}
	return out
}

// TestSharedStructureConcurrentSolves: every solve on one horizon
// structure reads the same symbolic phase. Two goroutines, each chaining
// warm solves on fresh one-use sessions and on its own reused session
// over the paper instance (mixed block widths, linking capacity rows),
// must reproduce the sequential plans bit for bit; under -race this also
// checks that the shared phase is only read.
func TestSharedStructureConcurrentSolves(t *testing.T) {
	inst := paperInstance(t)
	const w, steps = 5, 6
	inputs := make([]core.HorizonInput, steps)
	for k := range inputs {
		demand, prices := make([][]float64, w), make([][]float64, w)
		for tt := range demand {
			demand[tt] = make([]float64, inst.NumLocations())
			for v := range demand[tt] {
				demand[tt][v] = 260 + 15*float64((v+k+tt)%6)
			}
			prices[tt] = []float64{0.081, 0.074, 0.069 + 0.002*float64(k), 0.077}
		}
		inputs[k] = core.HorizonInput{X0: inst.NewState(), Demand: demand, Prices: prices}
	}
	run := func() ([][]float64, error) {
		ses, err := inst.NewHorizonSession(w, qp.DefaultOptions())
		if err != nil {
			return nil, err
		}
		var out [][]float64
		var warmOne, warmSes *core.HorizonWarm
		for _, in := range inputs {
			in.Warm = warmOne
			fresh, err := inst.NewHorizonSession(w, qp.DefaultOptions())
			if err != nil {
				return nil, err
			}
			one, err := fresh.Solve(in)
			if err != nil {
				return nil, err
			}
			in.Warm = warmSes
			viaSes, err := ses.Solve(in)
			if err != nil {
				return nil, err
			}
			out = append(out, planDigest(one), planDigest(viaSes))
			warmOne, warmSes = one.Warm, viaSes.Warm
		}
		return out, nil
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var got [2][][]float64
	var errs [2]error
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = run()
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for k := range want {
			for i := range want[k] {
				if got[g][k][i] != want[k][i] {
					t.Fatalf("goroutine %d, solve %d, entry %d: %v, sequential %v", g, k, i, got[g][k][i], want[k][i])
				}
			}
		}
	}
}
