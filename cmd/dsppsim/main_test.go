package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runToString(t *testing.T, args []string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := run(args, f); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRunBasic(t *testing.T) {
	out := runToString(t, []string{"-periods", "3", "-metros", "4", "-horizon", "2"})
	if !strings.Contains(out, "total cost") {
		t.Errorf("missing summary:\n%s", out)
	}
	if !strings.Contains(out, "San Jose") {
		t.Errorf("missing DC column:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// banner, blank, header, 3 periods, blank, summary
	if len(lines) < 7 {
		t.Errorf("too few lines (%d):\n%s", len(lines), out)
	}
}

func TestRunPredictors(t *testing.T) {
	for _, p := range []string{"perfect", "persistence", "seasonal", "ar", "holtwinters"} {
		out := runToString(t, []string{"-periods", "3", "-metros", "3", "-horizon", "2", "-predictor", p})
		if !strings.Contains(out, "predictor="+p) {
			t.Errorf("%s: banner missing predictor", p)
		}
	}
}

func TestRunCSVExport(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "run.csv")
	out := runToString(t, []string{"-periods", "3", "-metros", "3", "-csv", csvPath})
	if !strings.Contains(out, "wrote "+csvPath) {
		t.Errorf("missing csv confirmation:\n%s", out)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "period,demand_total") {
		t.Errorf("csv header wrong: %q", strings.SplitN(string(data), "\n", 2)[0])
	}
}

func TestRunTelemetryAndTraceSummary(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "run.jsonl")
	out := runToString(t, []string{
		"-periods", "4", "-metros", "3", "-horizon", "2",
		"-telemetry-addr", "127.0.0.1:0", "-trace-out", tracePath,
		"-fault", "outage:dc=1,start=2,end=3",
	})
	if !strings.Contains(out, "telemetry:") || !strings.Contains(out, "dspp_qp_solves_total") {
		t.Errorf("missing telemetry table:\n%s", out)
	}
	// The replayed trace must reproduce the run's degradation summary
	// line verbatim.
	var wantLine string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "steps degraded") || strings.Contains(line, "steps clean") {
			wantLine = line
			break
		}
	}
	if wantLine == "" {
		t.Fatalf("run printed no degradation summary:\n%s", out)
	}
	summary := runToString(t, []string{"trace-summary", tracePath})
	if !strings.Contains(summary, wantLine) {
		t.Errorf("trace-summary missing %q:\n%s", wantLine, summary)
	}
	for _, span := range []string{"run", "period", "mpc_step", "qp_solve"} {
		if !strings.Contains(summary, span) {
			t.Errorf("trace-summary missing span %q:\n%s", span, summary)
		}
	}
}

func TestTraceSummaryErrors(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := run([]string{"trace-summary"}, f); err == nil {
		t.Error("trace-summary without a file accepted")
	}
	if err := run([]string{"trace-summary", filepath.Join(t.TempDir(), "absent.jsonl")}, f); err == nil {
		t.Error("trace-summary on a missing file accepted")
	}
}

func TestRunFlagErrors(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cases := [][]string{
		{"-dcs", "0"},
		{"-dcs", "9"},
		{"-metros", "0"},
		{"-metros", "99"},
		{"-predictor", "oracle-of-delphi"},
	}
	for _, args := range cases {
		if err := run(args, f); err == nil {
			t.Errorf("run(%v) accepted invalid flags", args)
		}
	}
}

// TestRunContinental runs a small continental instance through the MPC
// controller: the banner names the MPC policy, every period meets the
// SLA, no decomposition header is printed, and the removed
// decomposition flags are unknown.
func TestRunContinental(t *testing.T) {
	out := runToString(t, []string{
		"-continental", "-locations", "120", "-dcsites", "12", "-horizon", "2", "-periods", "12",
	})
	for _, want := range []string{"policy=mpc-w2", "SLA violations 0/12"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "decomposition:") {
		t.Errorf("output carries a decomposition line:\n%s", out)
	}

	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, args := range [][]string{
		{"-continental", "-decomp"},
		{"-continental", "-shard-size", "30"},
	} {
		err := run(args, f)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%v) = %v, want an unknown-flag error", args, err)
		}
	}
}
