//go:build !race

package runtime

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
