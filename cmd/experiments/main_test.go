package main

import (
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	reg := registry()
	want := map[string]bool{
		"fig3": false, "fig4": false, "fig5": false, "fig6": false,
		"fig7": false, "fig8": false, "fig9": false, "fig10": false,
		"support": false,
		"pos":     false, "ablation-reconfig": false, "ablation-baselines": false,
		"ablation-percentile": false, "ablation-reservation": false,
		"ablation-stepsize": false, "ablation-ffd": false,
		"validate-mm1": false, "ablation-soft": false,
		"game-receding": false, "extension-pooling": false,
		"validate-endtoend": false, "ablation-integer": false, "poa": false,
		"predictors": false, "extension-spot": false, "robust-outage": false,
		"continental-scaling": false,
	}
	for _, e := range reg {
		if _, ok := want[e.name]; !ok {
			t.Errorf("unexpected experiment %q", e.name)
		}
		want[e.name] = true
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("experiment %q missing from registry", name)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	// fig3 is instantaneous and has no dependencies.
	if err := run([]string{"-fig", "fig3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-fig", "does-not-exist"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestEveryExperimentPassesItsShapeCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	for _, e := range registry() {
		e := e
		t.Run(e.name, func(t *testing.T) {
			table, shapeErr, err := e.run(2012, 6)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if table == nil || len(table.Rows) == 0 {
				t.Error("empty table")
			}
			if shapeErr != nil {
				t.Errorf("shape check failed: %v", shapeErr)
			}
		})
	}
}
