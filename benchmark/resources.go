package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// usage is one reading of the process's cumulative resource counters.
type usage struct {
	at      int64   // now()
	cpuMS   float64 // user+sys CPU, getrusage
	mallocs uint64  // runtime.MemStats.Mallocs
}

// cpuMS returns the process's cumulative user+sys CPU time.
func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

func readUsage() usage {
	u := usage{at: now(), cpuMS: cpuMS()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs = ms.Mallocs
	return u
}

// peakRSSMB returns the process's resident-set high-water mark: VmHWM from
// /proc/self/status, falling back to getrusage's ru_maxrss (KiB on Linux).
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range bytes.Split(data, []byte("\n")) {
			if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
				f := bytes.Fields(rest)
				if len(f) > 0 {
					if kb, err := strconv.ParseFloat(string(f[0]), 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// rssMB returns the process's resident set right now, from
// /proc/self/statm, or 0 where that cannot be read.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(data)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(string(f[1]), 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssWatch polls the resident set while a stretch of work runs and keeps
// the highest reading: the high-water mark of that stretch alone, which
// VmHWM — one number for the life of the process — cannot give. A heap peak
// lasts a garbage-collection cycle, tens of milliseconds here, so a reading
// every few milliseconds does not miss one.
type rssWatch struct {
	stop chan struct{}
	peak chan float64
}

const rssWatchEvery = 4 * time.Millisecond

func watchRSS() *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		tick := time.NewTicker(rssWatchEvery)
		defer tick.Stop()
		peak := rssMB()
		for {
			select {
			case <-tick.C:
				peak = max(peak, rssMB())
			case <-w.stop:
				w.peak <- max(peak, rssMB())
				return
			}
		}
	}()
	return w
}

// peakMB ends the watch and returns the highest resident set it saw.
func (w *rssWatch) peakMB() float64 {
	close(w.stop)
	return <-w.peak
}
