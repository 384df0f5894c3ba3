//go:build race

package main

// raceEnabled reports a race-detector build, which runs the figures
// several times slower; the golden test then covers the cheapest ones.
const raceEnabled = true
