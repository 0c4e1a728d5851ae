//go:build race

package report

// raceEnabled reports whether this test binary was built with the Go race
// detector. TestGoldens leaves its multi-second selectors out under -race:
// the detector multiplies their run time by more than ten, and the bytes
// they pin are checked by the plain run.
const raceEnabled = true
