//go:build race

package splitter

// raceEnabled reports a race-detector build. The race detector makes
// sync.Pool drop a share of Puts at random, so a pooled agent or trainer
// is reallocated now and then; allocation-count tests skip.
const raceEnabled = true
