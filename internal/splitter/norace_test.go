//go:build !race

package splitter

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
