//go:build race

package partition

// raceEnabled reports a race-detector build. The reference tests share no
// state, and the race detector slows their float arithmetic about sixfold,
// so they skip there; TestMemoConcurrent runs concurrent searches.
const raceEnabled = true
