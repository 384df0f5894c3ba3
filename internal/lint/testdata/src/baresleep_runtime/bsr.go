// Package bsr is loaded as internal/runtime: the exemption belongs to
// transport.sleepUntil alone, so a function that borrows the name in the
// other paced package is flagged like any relative sleep.
package bsr

import "time"

func sleepUntil(d time.Duration) {
	time.Sleep(d) // want `bare time\.Sleep in an emulation package`
}
