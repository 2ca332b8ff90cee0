//go:build race

package game

// raceDetectorEnabled reports whether this test binary was built with
// -race. Exact allocation-count assertions are skipped under the race
// detector: its shadow-memory bookkeeping allocates nondeterministically
// and pollutes testing.AllocsPerRun by ±1–2 allocs per solve.
const raceDetectorEnabled = true
