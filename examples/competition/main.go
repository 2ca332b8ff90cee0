// Competition: the paper's multi-provider game (§VI, Fig. 7, Theorem 1).
//
// Three service providers with different server sizes and demand compete
// for a cheap data center with limited capacity; an expensive
// uncapacitated DC absorbs the overflow. The infrastructure provider runs
// Algorithm 2 — each round every SP solves its own DSPP against its quota
// and reports the capacity duals; quotas then shift toward the providers
// that value capacity most. The example prints the quota trajectory and
// verifies Theorem 1 numerically: the equilibrium total cost approaches
// the social optimum (price of stability 1).
//
// Run with:
//
//	go run ./examples/competition
package main

import (
	"fmt"
	"log"
	"math"

	"dspp"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func provider(name string, size, demandLevel, reconfig float64) *dspp.Provider {
	const window = 3
	demand := make([][]float64, window)
	prices := make([][]float64, window)
	for t := 0; t < window; t++ {
		demand[t] = []float64{demandLevel}
		prices[t] = []float64{0.02, 0.12} // cheap bottleneck, pricey overflow
	}
	return &dspp.Provider{
		Name:            name,
		SLA:             [][]float64{{0.01}, {0.012}}, // a^lv per DC
		ReconfigWeights: []float64{reconfig, reconfig},
		ServerSize:      size,
		Demand:          demand,
		Prices:          prices,
	}
}

func run() error {
	scenario := &dspp.GameScenario{
		// DC0: 120 capacity units, six times cheaper — the bottleneck.
		// DC1: unlimited.
		Capacity: []float64{120, math.Inf(1)},
		Providers: []*dspp.Provider{
			provider("video", 4, 6000, 5e-5),  // big servers, heavy demand
			provider("webapp", 2, 4000, 5e-5), // medium
			provider("api", 1, 2500, 5e-5),    // small servers, light demand
		},
	}

	// Social optimum: one joint solve with shared capacity.
	swp, err := dspp.SolveSocialWelfare(scenario)
	if err != nil {
		return err
	}

	// Algorithm 2: distributed best response with dual-proportional
	// quota reallocation.
	ne, err := dspp.BestResponse(scenario, dspp.BestResponseConfig{
		Alpha:         100,
		StepDecay:     1,
		Epsilon:       0.02,
		MaxIterations: 2000,
	})
	if err != nil {
		return err
	}

	fmt.Println("Resource competition for the cheap bottleneck DC (120 units):")
	fmt.Println()
	fmt.Println("provider  server-size  demand   quota  NE cost   SWP cost")
	for i, p := range scenario.Providers {
		fmt.Printf("%-9s %-12.0f %-8.0f %-6.1f %-9.4f %.4f\n",
			p.Name, p.ServerSize, p.Demand[0][0],
			ne.Quotas[i][0], ne.Outcomes[i].Cost, swp.Outcomes[i].Cost)
	}

	ratio, err := dspp.EfficiencyRatio(ne, swp)
	if err != nil {
		return err
	}
	fmt.Printf("\nAlgorithm 2 converged in %d rounds (ε-stable per provider)\n", ne.Iterations)
	fmt.Printf("cost trajectory: ")
	for i, c := range ne.CostHistory {
		if i == 8 {
			fmt.Printf("…")
			break
		}
		fmt.Printf("%.3f ", c)
	}
	fmt.Printf("\nNE total %.4f vs social optimum %.4f — efficiency ratio %.4f\n",
		ne.Total, swp.Total, ratio)
	fmt.Println("(Theorem 1: the best Nash equilibrium is socially optimal, PoS = 1)")
	return nil
}
