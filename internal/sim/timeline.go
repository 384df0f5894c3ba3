package sim

import (
	"fmt"
	"sort"

	"distredge/internal/strategy"
)

// EventKind classifies a timeline event.
type EventKind string

// Event kinds.
const (
	EventScatter EventKind = "scatter" // requester -> provider input rows
	EventRecv    EventKind = "recv"    // inter-provider halo transfer
	EventCompute EventKind = "compute" // split-part execution
	EventGather  EventKind = "gather"  // last volume -> FC owner
	EventFC      EventKind = "fc"      // fully-connected layers on the owner
	EventResult  EventKind = "result"  // result back to the requester
)

// Event is one interval of activity attributed to a device during the
// execution of a single image.
type Event struct {
	Device int // provider index; network.Requester for the requester
	Volume int // volume index; -1 for scatter/result phases
	Kind   EventKind
	Start  float64 // seconds since the image entered the system
	End    float64
}

// Timeline executes one image under the strategy and returns the full
// event log — a Gantt view of where every millisecond went. It is Latency's
// replay with an event sink, so the final event's End and the returned
// total are Latency's result.
func (e *Env) Timeline(s *strategy.Strategy, at float64) ([]Event, float64, error) {
	p, err := e.checkoutPlan(s)
	if err != nil {
		return nil, 0, err
	}
	defer e.checkinPlan(p)
	var events []Event
	end := p.replay(at, p.idleState(), &events)
	sort.Slice(events, func(i, j int) bool {
		if events[i].Start != events[j].Start {
			return events[i].Start < events[j].Start
		}
		return events[i].End < events[j].End
	})
	return events, end, nil
}

// RenderTimeline formats the event log as a per-device text Gantt chart
// with the given character width.
func RenderTimeline(events []Event, total float64, width int) string {
	if len(events) == 0 || total <= 0 {
		return ""
	}
	if width < 10 {
		width = 60
	}
	byDev := map[int][]Event{}
	var devs []int
	for _, ev := range events {
		if _, ok := byDev[ev.Device]; !ok {
			devs = append(devs, ev.Device)
		}
		byDev[ev.Device] = append(byDev[ev.Device], ev)
	}
	sort.Ints(devs)
	glyph := map[EventKind]rune{
		EventScatter: 's', EventRecv: 'r', EventCompute: '#',
		EventGather: 'g', EventFC: 'f', EventResult: '>',
	}
	out := ""
	for _, d := range devs {
		row := make([]rune, width)
		for i := range row {
			row[i] = '.'
		}
		for _, ev := range byDev[d] {
			lo := int(ev.Start / total * float64(width))
			hi := int(ev.End / total * float64(width))
			if hi <= lo {
				hi = lo + 1
			}
			for i := lo; i < hi && i < width; i++ {
				row[i] = glyph[ev.Kind]
			}
		}
		out += fmt.Sprintf("dev %2d |%s|\n", d, string(row))
	}
	out += fmt.Sprintf("total %.1f ms  (s=scatter r=recv #=compute g=gather f=fc >=result)\n", total*1e3)
	return out
}
