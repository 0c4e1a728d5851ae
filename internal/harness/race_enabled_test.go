//go:build race

package harness

// raceEnabled reports whether this test binary was built with the Go race
// detector. The corpus-wide differential sweep trims itself under -race:
// the race detector multiplies the 300-cell run time by an order of
// magnitude, and the concurrency it needs to exercise (the baton passing
// between thread goroutines, the matrix worker pool) is fully covered by
// the trimmed set.
const raceEnabled = true
