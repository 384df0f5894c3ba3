package distredge

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"distredge/internal/admit"
	"distredge/internal/runtime"
	"distredge/internal/sim"
	"distredge/internal/transport"
)

// ParseProviders parses the "type:bandwidthMbps,type:bandwidthMbps,..."
// provider syntax shared by the command-line tools, e.g.
// "xavier:200,nano:100,pi3:50". Bandwidths must be positive finite numbers;
// the device type must be non-empty (it is validated against the device
// zoo later, by New).
func ParseProviders(spec string) ([]Provider, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("distredge: empty provider spec")
	}
	var out []Provider
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		bits := strings.Split(part, ":")
		if len(bits) != 2 {
			return nil, fmt.Errorf("distredge: bad provider %q (want type:bandwidthMbps)", part)
		}
		typ := strings.TrimSpace(bits[0])
		if typ == "" {
			return nil, fmt.Errorf("distredge: provider %q has an empty device type", part)
		}
		bw, err := strconv.ParseFloat(bits[1], 64)
		if err != nil {
			return nil, fmt.Errorf("distredge: bad bandwidth in %q: %v", part, err)
		}
		if bw <= 0 || bw != bw || bw > 1e9 {
			return nil, fmt.Errorf("distredge: bandwidth in %q must be a positive number of Mbps", part)
		}
		out = append(out, Provider{Type: typ, BandwidthMbps: bw})
	}
	return out, nil
}

// ParseChurn parses the scripted fleet-event syntax shared by the
// command-line tools: comma-separated events of the form
//
//	drop:DEV@T    — provider DEV leaves the fleet at trace time T (seconds)
//	join:DEV@T    — provider DEV rejoins at T
//	slow:DEVxF@T  — provider DEV becomes F times slower at T
//
// e.g. "drop:1@2.5,slow:2x3@4,join:1@8". The kind must be one of these
// three, times must be finite and
// non-negative, devices non-negative, slow factors positive and finite
// (an event at +Inf would silently never fire), and no event may be an
// exact duplicate of an earlier one (same kind, device and time — almost
// always a typo for a different time). The events are a sim.Scenario's
// Events, for the simulator and the runtime alike.
func ParseChurn(spec string) ([]sim.ChurnEvent, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	seen := make(map[sim.ChurnEvent]bool)
	var out []sim.ChurnEvent
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		kind, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("distredge: bad churn event %q (want kind:dev@t)", part)
		}
		devSpec, atSpec, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("distredge: bad churn event %q (missing @time)", part)
		}
		at, err := strconv.ParseFloat(atSpec, 64)
		if err != nil {
			return nil, fmt.Errorf("distredge: bad time in %q: %v", part, err)
		}
		if !(at >= 0) || math.IsInf(at, 1) {
			return nil, fmt.Errorf("distredge: churn event %q needs a finite, non-negative time", part)
		}
		ev := sim.ChurnEvent{At: at, Factor: 1}
		switch kind = strings.TrimSpace(kind); kind {
		case "drop":
			ev.Kind = sim.DeviceDrop
		case "join":
			ev.Kind = sim.DeviceJoin
		case "slow":
			ev.Kind = sim.DeviceSlow
			dv, fv, ok := strings.Cut(devSpec, "x")
			if !ok {
				return nil, fmt.Errorf("distredge: slow event %q needs devxfactor", part)
			}
			ev.Factor, err = strconv.ParseFloat(fv, 64)
			if err != nil {
				return nil, fmt.Errorf("distredge: bad factor in %q: %v", part, err)
			}
			if !(ev.Factor > 0) || math.IsInf(ev.Factor, 1) {
				return nil, fmt.Errorf("distredge: slow factor in %q must be positive and finite", part)
			}
			devSpec = dv
		default:
			return nil, fmt.Errorf("distredge: unknown churn kind %q in %q (want drop|join|slow)", kind, part)
		}
		ev.Device, err = strconv.Atoi(strings.TrimSpace(devSpec))
		if err != nil {
			return nil, fmt.Errorf("distredge: bad device in %q: %v", part, err)
		}
		if ev.Device < 0 {
			return nil, fmt.Errorf("distredge: churn event %q has a negative device index", part)
		}
		key := sim.ChurnEvent{At: ev.At, Kind: ev.Kind, Device: ev.Device}
		if seen[key] {
			return nil, fmt.Errorf("distredge: duplicate churn event %q", part)
		}
		seen[key] = true
		out = append(out, ev)
	}
	return out, nil
}

// ParseObjective parses the command-line -objective flag shared by the
// planning commands: "latency" (or empty, the default) plans for
// sequential single-image latency, "ips" for sustained pipelined
// throughput, "slo" for throughput under a p95 latency bound (the bound
// itself comes from the -slo flag via PlanConfig.SLOP95MS).
func ParseObjective(spec string) (Objective, error) {
	switch strings.TrimSpace(spec) {
	case "", string(ObjectiveLatency):
		return ObjectiveLatency, nil
	case string(ObjectiveIPS):
		return ObjectiveIPS, nil
	case string(ObjectiveSLO):
		return ObjectiveSLO, nil
	default:
		return "", fmt.Errorf("distredge: unknown objective %q (want latency|ips|slo)", spec)
	}
}

// ParseTenants parses the command-line -tenants flag shared by the serving
// commands: comma-separated "name:IMAGESxWEIGHT" entries, weight optional
// (default 1), e.g. "heavy:24x1,small:4x4". Names must be unique and
// non-empty, images >= 1, weights positive with a finite share (the
// admission rule's own check, so what parses here serves).
func ParseTenants(spec string) ([]sim.TenantSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("distredge: empty tenant spec")
	}
	seen := make(map[string]bool)
	var out []sim.TenantSpec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		name, rest, ok := strings.Cut(part, ":")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("distredge: bad tenant %q (want name:IMAGESxWEIGHT)", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("distredge: duplicate tenant %q", name)
		}
		seen[name] = true
		imgSpec, wSpec, hasW := strings.Cut(rest, "x")
		images, err := strconv.Atoi(strings.TrimSpace(imgSpec))
		if err != nil {
			return nil, fmt.Errorf("distredge: bad image count in %q: %v", part, err)
		}
		if images < 1 {
			return nil, fmt.Errorf("distredge: tenant %q needs at least one image", part)
		}
		weight := 1.0
		if hasW {
			weight, err = strconv.ParseFloat(strings.TrimSpace(wSpec), 64)
			if err != nil {
				return nil, fmt.Errorf("distredge: bad weight in %q: %v", part, err)
			}
			if _, err := admit.Share(weight); weight <= 0 || err != nil {
				return nil, fmt.Errorf("distredge: weight in %q must be positive with a finite 1/weight", part)
			}
		}
		out = append(out, sim.TenantSpec{Name: name, Images: images, Weight: weight})
	}
	return out, nil
}

// ParseTransport builds the wire stack named by the command-line
// -transport flag:
//
//	tcp              — localhost TCP sockets, binary chunk codec (the default)
//	tcp+deflate      — tcp with DEFLATE-compressed chunk payloads (worth the
//	                   CPU on low-bandwidth shaped links; see DESIGN.md)
//	tcp+quant        — tcp with int8-quantized chunk payloads (4x fewer
//	                   payload bytes; lossy — see DESIGN.md "Quantized
//	                   payloads")
//	tcp+quant16      — tcp with fp16-quantized chunk payloads (2x, near
//	                   lossless)
//	tcp+quant+deflate — int8 quantization with DEFLATE over the quantized
//	                   bytes (the compositions stack back to front)
//	inproc           — in-process channels, no sockets (fast, race-clean)
//
// Every stack carries a payload pool so chunk buffers are recycled across
// images. Wrap the result with System.ShapedTransportPostCodec to charge
// the system's WiFi trace latency to the bytes the stack puts on the wire
// (the -trace flag).
func ParseTransport(spec string) (transport.Transport, error) {
	switch strings.TrimSpace(spec) {
	case "", "tcp":
		return transport.NewTCP(nil), nil
	case "tcp+deflate":
		return transport.NewTCP(transport.Deflate()), nil
	case "tcp+quant":
		return transport.NewTCP(transport.Quant(transport.QuantInt8, nil)), nil
	case "tcp+quant16":
		return transport.NewTCP(transport.Quant(transport.QuantFP16, nil)), nil
	case "tcp+quant+deflate":
		return transport.NewTCP(transport.Quant(transport.QuantInt8, transport.Deflate())), nil
	case "inproc":
		return transport.NewInproc(), nil
	default:
		return nil, fmt.Errorf("distredge: unknown transport %q (want tcp|tcp+deflate|tcp+quant|tcp+quant16|tcp+quant+deflate|inproc)", spec)
	}
}

// ShapedTransportPostCodec wraps a transport so the runtime's sends are
// charged this system's WiFi trace latency (internal/transport's shaped
// decorator): the deployed cluster then experiences the same network
// conditions the simulator evaluates — including the dynamic traces of
// WithDynamicNetwork — instead of localhost's free wire. The latency is
// charged for the bytes the inner transport's codec puts on the wire, so
// quantizing and compressing codecs (tcp+quant, tcp+quant+deflate,
// tcp+deflate) buy back shaped wire seconds exactly as they would on a
// real link; inner transports without a wire codec (inproc — payloads
// cross by reference) are charged the raw payload. The opts must be the
// same runtime.Options the cluster is deployed with, so payload bytes and
// wall-clock sleeps map back to model scale consistently.
func (s *System) ShapedTransportPostCodec(inner transport.Transport, opts runtime.Options) transport.Transport {
	return transport.NewShaped(inner, s.env.Net, opts.TimeScale, opts.BytesScale)
}
