//go:build race

package transport

// raceEnabled reports a race-detector build. The race detector makes
// sync.Pool drop a share of Puts at random, so a pooled round trip
// allocates now and then; allocation-count tests skip their count assertion.
const raceEnabled = true
