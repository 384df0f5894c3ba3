package bs

import "time"

// Test files poll and pause freely.
func waitABit() {
	time.Sleep(1000000)
}
