package dspp

import (
	"dspp/internal/decomp"
	"dspp/internal/topology"
)

// Continental-scale instances: a generated topology of access locations
// and DC sites, converted into a ready-to-solve instance. Controller runs
// them like any other instance; its block-angular horizon solve keeps a
// continental period in milliseconds.
type (
	// ContinentalConfig parameterizes the continental topology generator.
	ContinentalConfig = topology.ContinentalConfig
	// ContinentalNetwork is a generated continental topology.
	ContinentalNetwork = topology.ContinentalNetwork

	// ContinentalScenario is a ready-to-solve synthetic continental
	// benchmark instance.
	ContinentalScenario = decomp.Scenario
	// ContinentalScenarioConfig sizes a ContinentalScenario.
	ContinentalScenarioConfig = decomp.ScenarioConfig
)

// GenerateContinental builds a deterministic continental-scale network:
// DC sites on a reach-scaled jittered grid, every location within the
// latency reach of an anchor DC.
func GenerateContinental(cfg ContinentalConfig) (*ContinentalNetwork, error) {
	return topology.GenerateContinental(cfg)
}

// NewContinentalScenario generates a continental topology and converts it
// into a ready-to-solve benchmark instance with per-catchment capacities.
func NewContinentalScenario(cfg ContinentalScenarioConfig) (*ContinentalScenario, error) {
	return decomp.NewScenario(cfg)
}
