package runtime

import (
	"sync"
	"testing"

	"distredge/internal/device"
	"distredge/internal/transport"
)

// TestHighFanInStress drives the requester's completion table the way the
// serving gateway does at peak: 8 providers' result fan-in racing 8
// concurrent Submit callers, over both channel and socket transports. It
// asserts every request completes, the completion table drains to empty,
// and no provider is left holding assembly state — a stuck gc cursor would
// show up as leftover images here.
func TestHighFanInStress(t *testing.T) {
	transports := map[string]func() transport.Transport{
		"inproc": func() transport.Transport { return transport.NewInproc() },
		"tcp":    func() transport.Transport { return transport.NewTCP(nil) },
	}
	for name, mk := range transports {
		t.Run(name, func(t *testing.T) {
			env := testEnv(
				device.Xavier, device.Nano, device.TX2, device.Nano,
				device.Xavier, device.TX2, device.Nano, device.Nano,
			)
			s := equalStrategy(env, []int{0, 10, 18})
			opts := fastOpts()
			opts.Transport = mk()
			cl, err := Deploy(env, s, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			const callers, each = 8, 4
			errs := make([]error, callers)
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for j := 0; j < each; j++ {
						if err := cl.Submit(); err != nil {
							errs[i] = err
							return
						}
					}
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("caller %d: %v", i, err)
				}
			}

			bk := cl.bookkeeping()
			if bk.nextImg != callers*each {
				t.Errorf("allocated %d ids for %d submits", bk.nextImg, callers*each)
			}
			if bk.registered != 0 || bk.completed != 0 {
				t.Errorf("completion table leaked: registered=%d completed=%d",
					bk.registered, bk.completed)
			}
			if bk.gcLow != bk.nextImg+1 {
				t.Errorf("gc cursor stuck at %d, want %d", bk.gcLow, bk.nextImg+1)
			}

			// Every provider must have been gc'ed past every image: leftover
			// assembly state means some completion never reached its gc.
			for _, p := range cl.dep.Load().providers {
				p.mu.Lock()
				inflight, min := len(p.images), p.minImg
				p.mu.Unlock()
				if inflight != 0 || min != bk.gcLow {
					t.Errorf("provider %d gc watermark stuck: %d in-flight images, minImg=%d want %d",
						p.plan.Index, inflight, min, bk.gcLow)
				}
			}
		})
	}
}
