package sim

import (
	"fmt"

	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/strategy"
)

// ChurnKind labels a scripted fleet event.
type ChurnKind int

const (
	// DeviceDrop removes a provider from the fleet at the event time: its
	// in-flight work is lost and (with recovery) the strategy is re-planned
	// over the survivors.
	DeviceDrop ChurnKind = iota
	// DeviceJoin returns a previously dropped provider to the fleet.
	DeviceJoin
	// DeviceSlow multiplies a provider's compute latency by Factor from the
	// event time on (thermal throttling, co-located load).
	DeviceSlow
)

func (k ChurnKind) String() string {
	switch k {
	case DeviceDrop:
		return "drop"
	case DeviceJoin:
		return "join"
	case DeviceSlow:
		return "slow"
	}
	return fmt.Sprintf("ChurnKind(%d)", int(k))
}

// ChurnEvent is one scripted fleet change at an absolute trace time.
type ChurnEvent struct {
	At     float64
	Kind   ChurnKind
	Device int
	Factor float64 // DeviceSlow only: compute-latency multiplier (> 1 = slower)
}

// ReplanFunc re-plans a strategy after a fleet change: given the
// environment (whose device models already reflect any slowdowns), the old
// strategy and the liveness mask, it returns a full-fleet strategy in which
// every dead provider has empty parts. splitter.BalancedReplan,
// splitter.ObjectiveReplan and splitter.SearchReplan are the
// implementations; there is no default.
type ReplanFunc func(e *Env, old *strategy.Strategy, alive []bool) (*strategy.Strategy, error)

// ChurnOptions says how a Scenario's deployment reacts to its fleet events.
type ChurnOptions struct {
	// ReplanSec is the simulated controller delay charged per recovery
	// (re-planning + state migration); no image is re-admitted before
	// event time + ReplanSec.
	ReplanSec float64
	// Replan is the recovery switch: when set, each event re-plans over
	// the survivors with it. When nil the old strategy is recompiled
	// against the changed fleet, a DeviceDrop ends the stream at the event
	// time (the sticky-failure semantics of the runtime's Cluster.Err),
	// and joins are ignored.
	Replan ReplanFunc
}

// Subset returns the environment restricted to the alive providers (in
// index order) plus the mapping from subset position to original provider
// index. Device models, network links and the requester link are shared
// with the parent environment; caches start fresh.
func (e *Env) Subset(alive []bool) (*Env, []int, error) {
	if len(alive) != len(e.Devices) {
		return nil, nil, fmt.Errorf("sim: subset mask has %d entries for %d providers", len(alive), len(e.Devices))
	}
	var devs []device.LatencyModel
	var links []network.Link
	var idx []int
	for i, a := range alive {
		if !a {
			continue
		}
		devs = append(devs, e.Devices[i])
		links = append(links, e.Net.Providers[i])
		idx = append(idx, i)
	}
	if len(devs) == 0 {
		return nil, nil, fmt.Errorf("sim: subset with no alive providers")
	}
	net := &network.Network{Providers: links, Requester: e.Net.Requester}
	return &Env{Model: e.Model, Devices: devs, Net: net}, idx, nil
}
