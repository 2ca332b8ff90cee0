package main

import (
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestSummaryQuotesMatchGoldens checks the numbers EXPERIMENTS.md's
// summary and ablation tables quote against the golden tables in
// testdata/: each quote must be its golden value rounded to the quote's
// own decimals. A moved golden or a hand-edited quote fails here until the
// quote is re-read from the golden.
func TestSummaryQuotesMatchGoldens(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	measured := tableCells(doc, "## Summary", 3)
	maps.Copy(measured, tableCells(doc, "## Ablations", 2))
	fig6, fig7, fig8 := readGolden(t, "fig6"), readGolden(t, "fig7"), readGolden(t, "fig8")
	fig9, fig10, pos := readGolden(t, "fig9"), readGolden(t, "fig10"), readGolden(t, "pos")
	base := readGolden(t, "ablation-baselines")
	mpc := base.at(t, "mpc-w5", 1)
	overMPC := func(policy string) float64 { return 100 * (base.at(t, policy, 1)/mpc - 1) }
	for _, q := range []struct {
		row   string
		quote string // a regexp on the row's result cell; its group is the quoted number
		// golden holds every value the quote stands for.
		golden []float64
	}{
		{"Fig 6", `change (\S+) \(K=1\)`, []float64{fig6.at(t, "1", 1)}},
		{"Fig 6", `→ (\S+) \(K=10\.\.30\)`, []float64{fig6.at(t, "10", 1), fig6.at(t, "20", 1), fig6.at(t, "30", 1)}},
		{"Fig 6", `cost (\S+) →`, []float64{fig6.at(t, "1", 2)}},
		{"Fig 6", `cost \S+ → (\S+)$`, []float64{fig6.at(t, "30", 2)}},
		{"Fig 7", `mean iterations (\S+) \(cap 100\)`, []float64{mean(fig7.column(t, 1))}},
		{"Fig 7", `vs (\S+) \(cap 300\)`, []float64{mean(fig7.column(t, 3))}},
		{"Fig 7", `1 player ≈ (\S+),`, []float64{fig7.at(t, "1", 1), fig7.at(t, "1", 2), fig7.at(t, "1", 3)}},
		{"Fig 8", `^(\S+) \(W=1\)`, []float64{fig8.at(t, "1", 1)}},
		{"Fig 8", `→ (\S+) \(W=10\)`, []float64{fig8.at(t, "10", 1)}},
		{"Fig 8", `fewest \((\S+)\) at W=2`, []float64{fig8.at(t, "2", 1), slices.Min(fig8.column(t, 1))}},
		{"Fig 9", `^(\S+) \(W=1\)`, []float64{fig9.at(t, "1", 1)}},
		{"Fig 9", `\*\*(\S+) \(W=2, minimum\)`, []float64{fig9.at(t, "2", 1), slices.Min(fig9.column(t, 1))}},
		{"Fig 9", `rising to (\S+) \(W=12\)`, []float64{fig9.at(t, "12", 1)}},
		{"Fig 10", `^(\S+) \(W=1\)`, []float64{fig10.at(t, "1", 1)}},
		{"Fig 10", `→ (\S+) \(W=10\)`, []float64{fig10.at(t, "10", 1)}},
		{"Thm 1", `NE/SWP = (\S+)–`, []float64{slices.Min(pos.column(t, 1))}},
		{"Thm 1", `–(\S+) for`, []float64{slices.Max(pos.column(t, 1))}},
		{"MPC vs baselines", `violation-free \((\S+)\)`, []float64{mpc}},
		{"MPC vs baselines", `static-average (\S+) with`, []float64{base.at(t, "static-average", 1)}},
		{"MPC vs baselines", `with (\S+) SLA violations`, []float64{base.at(t, "static-average", 2)}},
		{"MPC vs baselines", `greedy-nearest (\S+) \(`, []float64{base.at(t, "greedy-nearest", 1)}},
		{"MPC vs baselines", `greedy-nearest \S+ \(\+(\S+)%\)`, []float64{overMPC("greedy-nearest")}},
		{"MPC vs baselines", `lazy-threshold (\S+) \(`, []float64{base.at(t, "lazy-threshold", 1)}},
		{"MPC vs baselines", `lazy-threshold \S+ \(\+(\S+)%\)`, []float64{overMPC("lazy-threshold")}},
	} {
		cell, ok := measured[q.row]
		if !ok {
			t.Errorf("EXPERIMENTS.md has no table row %q", q.row)
			continue
		}
		m := regexp.MustCompile(q.quote).FindStringSubmatch(cell)
		if m == nil {
			t.Errorf("%s: no quote matching %q in %q", q.row, q.quote, cell)
			continue
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Errorf("%s: quote %q: %v", q.row, m[1], err)
			continue
		}
		decimals := 0
		if i := strings.IndexByte(m[1], '.'); i >= 0 {
			decimals = len(m[1]) - i - 1
		}
		half := 0.5*math.Pow(10, -float64(decimals)) + 1e-9
		for _, g := range q.golden {
			if !(math.Abs(v-g) <= half) {
				t.Errorf("%s: EXPERIMENTS.md quotes %s where the golden reads %v", q.row, m[1], g)
			}
		}
	}
}

// tableCells maps each row of the table in EXPERIMENTS.md's section
// headed by heading (by the row's first cell) to its col-th cell: the
// Measured column (3) of the summary, the Result column (2) of the
// ablations.
func tableCells(doc, heading string, col int) map[string]string {
	out := make(map[string]string)
	_, section, _ := strings.Cut(doc, heading)
	section, _, _ = strings.Cut(section, "\n## ")
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < col+2 || !strings.HasPrefix(line, "|") {
			continue
		}
		out[strings.TrimSpace(cells[1])] = strings.TrimSpace(cells[col])
	}
	return out
}

// golden is the data rows of a golden table, split into fields.
type golden [][]string

// readGolden reads testdata/<name>.txt: a title, a header and a rule,
// then one row per line.
func readGolden(t *testing.T, name string) golden {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(string(data), "---\n")
	if !ok {
		t.Fatalf("%s: no header rule", name)
	}
	var g golden
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			g = append(g, f)
		}
	}
	return g
}

// at returns column col of the row whose first field is key.
func (g golden) at(t *testing.T, key string, col int) float64 {
	t.Helper()
	for _, row := range g {
		if row[0] == key {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("golden has no row %q", key)
	return 0
}

// column returns column col of every row.
func (g golden) column(t *testing.T, col int) []float64 {
	t.Helper()
	out := make([]float64, len(g))
	for i, row := range g {
		out[i] = g.at(t, row[0], col)
	}
	return out
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
