// Package admit is the admission rule of a multi-tenant serving front-end:
// which tenant's head request enters the fleet next. internal/gateway runs
// it over live queues and sim.Serve predicts it over modelled bursts; both
// call the same Pick, Admit and Release, so a policy swept offline is the
// policy served.
//
// The package owns the policy names, the validation of policy, global
// window and tenant contract, the two window gates, the ordering key with
// its tie-break, the virtual-service charge and the rule that a re-admitted
// request is not charged twice. It has no clock, no queue and no lock: the
// caller owns the requests, says through Pick's head callback which tenants
// have one ready, and serialises every call on one Sched and its tenants.
package admit

import (
	"fmt"
	"math"
)

// Admission policies:
//
//   - FIFO serves requests strictly in the order of the key the caller gives
//     each tenant's head request (enqueue sequence or time), ties to the
//     lower tenant index, so a heavy tenant's burst runs ahead of everyone
//     queued behind it;
//   - WFQ is weighted fair queueing by request count: each admission charges
//     the tenant 1/Weight of virtual service and the tenant with the least
//     virtual service (plus its next request's charge) goes first, ties to
//     the lower tenant index, so a small tenant with any backlog is
//     interleaved with a heavy one instead of waiting out its burst.
const (
	FIFO = "fifo"
	WFQ  = "wfq"
)

// Sched is one front-end's scheduler state: the policy and the global
// admission window with the requests currently holding a slot in it.
type Sched struct {
	policy   string
	window   int
	inflight int
}

// Tenant is one tenant's admission state. The caller owns the value (in a
// slice, or embedded in its own per-tenant record) and hands it back to the
// Sched that bound it.
type Tenant struct {
	charge   float64 // 1/Weight: the virtual service one admission costs
	window   int
	inflight int
	vserved  float64 // virtual service charged so far
}

// New validates the policy ("" means FIFO) and the global window.
func New(policy string, window int) (Sched, error) {
	if policy == "" {
		policy = FIFO
	}
	if policy != FIFO && policy != WFQ {
		return Sched{}, fmt.Errorf("unknown admission policy %q (want %s|%s)", policy, FIFO, WFQ)
	}
	if window < 1 {
		return Sched{}, fmt.Errorf("window must be >= 1, got %d", window)
	}
	return Sched{policy: policy, window: window}, nil
}

// Policy is the resolved policy name.
func (s *Sched) Policy() string { return s.policy }

// Share returns the virtual service one admission charges a tenant of the
// given weight (<= 0 means 1). A weight whose 1/Weight is not finite and
// positive — NaN, +Inf, or a denormal small enough to overflow — has no
// share: under WFQ it would be served always, for free, or never again.
func Share(weight float64) (float64, error) {
	if weight <= 0 {
		weight = 1
	}
	charge := 1 / weight
	if !(charge > 0) || math.IsInf(charge, 1) {
		return 0, fmt.Errorf("weight %g has no finite share", weight)
	}
	return charge, nil
}

// Bind validates one tenant's contract and returns its initial state. A
// window <= 0 means bounded only by the global window.
func (s *Sched) Bind(weight float64, window int) (Tenant, error) {
	charge, err := Share(weight)
	if err != nil {
		return Tenant{}, err
	}
	if window <= 0 {
		window = s.window
	}
	return Tenant{charge: charge, window: window}, nil
}

// Pick returns the index of the tenant whose head request is admitted next,
// or -1 when the global window is full or no tenant has a ready head and
// slack in its own window. head is asked about every tenant in index order,
// even when the global window is full: it returns the tenant's state,
// whether it has a request ready now, and that request's FIFO key (unused
// under WFQ, and when not ready).
func (s *Sched) Pick(tenants int, head func(i int) (t *Tenant, key float64, ready bool)) int {
	best, bestKey := -1, 0.0
	full := s.inflight >= s.window
	for i := 0; i < tenants; i++ {
		t, key, ready := head(i)
		if !ready || full || t.inflight >= t.window {
			continue
		}
		if s.policy == WFQ {
			key = t.vserved + t.charge
		}
		if best < 0 || key < bestKey {
			best, bestKey = i, key
		}
	}
	return best
}

// Admit takes a global and a tenant slot for t's head request and charges t
// its virtual service.
func (s *Sched) Admit(t *Tenant) {
	t.vserved += t.charge
	s.Readmit(t)
}

// Readmit takes the slots for a request that was admitted before and lost
// its slots to Release without completing: its charge is already paid.
func (s *Sched) Readmit(t *Tenant) {
	s.inflight++
	t.inflight++
}

// Release frees the slots of one of t's admitted requests.
func (s *Sched) Release(t *Tenant) {
	s.inflight--
	t.inflight--
}
