//go:build !race

package report

// raceEnabled reports whether this test binary was built with the Go race
// detector; see race_enabled_test.go.
const raceEnabled = false
