//go:build !race

package game

// raceDetectorEnabled reports whether this test binary was built with
// -race; see race_on_test.go.
const raceDetectorEnabled = false
