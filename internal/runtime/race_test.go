//go:build race

package runtime

// raceEnabled reports a race-detector build. The race detector makes
// sync.Pool drop a share of Puts at random, so pooled payloads are
// reallocated now and then; allocation-count tests skip their count
// assertion.
const raceEnabled = true
