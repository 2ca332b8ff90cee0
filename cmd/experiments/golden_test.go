package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden figure tables in testdata/")

// goldenFigures are the paper's figures, the two game-efficiency tables
// and the MPC-vs-baselines ablation. Their rendered tables are
// deterministic at a fixed seed (no wall-time column), so each is pinned
// byte for byte.
var goldenFigures = []string{
	"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "pos", "poa",
	"ablation-baselines",
}

// TestGoldenFigureTables renders each golden figure through the registry
// at the command's defaults (seed 2012, 10 players) and compares it with
// testdata/<name>.txt, which holds exactly what `experiments -fig <name>`
// prints above its shape check. A change that moves a digit is a change
// in the reproduction: rerun with -update and say which digits moved.
func TestGoldenFigureTables(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens are rendered on amd64; fused multiply-adds elsewhere may move a last digit")
	}
	runs := make(map[string]experiment)
	for _, e := range registry() {
		runs[e.name] = e
	}
	for _, name := range goldenFigures {
		t.Run(name, func(t *testing.T) {
			table, _, err := runs[name].run(2012, 10)
			if err != nil {
				t.Fatal(err)
			}
			got := []byte(table.Render())
			path := filepath.Join("testdata", name+".txt")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s differs from %s:\n%s", name, path, firstDiff(string(got), string(want)))
			}
		})
	}
}

// firstDiff reports the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return "line " + strconv.Itoa(i+1) + ":\n  got  " + gl + "\n  want " + wl
		}
	}
	return "(lengths differ)"
}
