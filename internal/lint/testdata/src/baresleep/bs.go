// Package bs exercises the baresleep analyzer: relative sleeps in an
// emulation package are flagged wherever they hide; the absolute-deadline
// helper, justified suppressions, other time functions and test files pass.
package bs

import "time"

func emulateCompute(cost time.Duration) {
	time.Sleep(cost) // want `bare time\.Sleep in an emulation package`
}

func emulateLink(lat float64) {
	if lat > 0 {
		go func() {
			time.Sleep(time.Duration(lat)) // want `bare time\.Sleep in an emulation package`
		}()
	}
}

func sleeper() func(time.Duration) {
	return time.Sleep // want `bare time\.Sleep in an emulation package`
}

// sleepUntil is the helper: the one place the package sleeps.
func sleepUntil(deadline time.Time) time.Duration {
	if d := time.Until(deadline); d > 0 {
		time.Sleep(d)
	}
	return time.Since(deadline)
}

type pacer struct{}

// A method that happens to share the helper's name is not the helper.
func (pacer) sleepUntil(d time.Duration) {
	time.Sleep(d) // want `bare time\.Sleep in an emulation package`
}

func injectedDelay(d time.Duration) {
	//distlint:allow baresleep -- a fault injected on purpose, not part of the emulated schedule
	time.Sleep(d)
}

func unjustified(d time.Duration) {
	//distlint:allow baresleep // want `allow directive needs a justification`
	time.Sleep(d) // want `bare time\.Sleep in an emulation package`
}

func otherClockCalls() time.Duration {
	return time.Since(time.Now()) // reading the clock is not sleeping
}
