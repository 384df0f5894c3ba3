// Package transport is the runtime's pluggable wire stack: framed message
// connections between the requester and the service providers. The runtime
// (internal/runtime) speaks only the Transport/Conn/Listener interfaces
// here, so the same deployment code runs over real TCP sockets, over pure
// in-process channels (fast, race-clean tests), over trace-shaped links
// that charge the simulator's WiFi latency to every payload byte, or over
// a chaos decorator that deterministically drops and partitions traffic
// for fault-injection tests.
//
// Stack composition is by wrapping: Shaped and Chaos decorate any inner
// transport, so "shaped inproc" (the simulator's network without socket
// timing noise) and "chaos tcp" are both one constructor call.
package transport

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Requester is the device index of the service requester, mirroring
// network.Requester and runtime.RequesterID. Transports that need endpoint
// identities (shaped, chaos) accept it like any provider index.
const Requester = -1

// Message is the framed wire unit: rows [Lo,Hi) of generation Volume
// (VolInput = the input image, more negative values are control messages
// such as heartbeats; see sentinels.go) for one image. Payload carries the
// activation bytes.
//
// Lag is the sender's schedule debt: how far past its ideal emulated finish
// time the stage that produced the message was running when it woke and
// handed the message on. It is a duration, not a timestamp, so it means the
// same on any host's clock. The receiving stage back-dates the message's
// ready time by it (ready = receive stamp - Lag) and sleeps to an absolute
// deadline computed from that, so one stage's overshoot is absorbed by the
// next stage's sleep instead of adding up along the pipeline.
//
// What a stage's sleep absorbs is therefore everything between its ready
// stamp and the sleep — the inherited Lag, and the real work in between
// (assembly and the work-queue hop on a device; the link lock and
// post-codec sizing on a link) — for as long as the stage costs more than
// that; where it costs less, the remainder is handed on as its own Lag. What
// no sleep absorbs is the time from a stage's wake to the next stage's
// stamp: filling and queueing the output, the sender, the codec, the socket.
// Lag is only meaningful on data chunks; control frames carry it as 0.
// Codecs carry it clamped to [0, MaxLag].
type Message struct {
	Image   uint32
	Volume  int32
	Lo, Hi  int32
	Lag     time.Duration
	Payload []byte
}

// MaxLag bounds the schedule debt a message can carry. Lag is input from
// outside the process: an unbounded value would let a corrupt or hostile
// peer cancel arbitrarily many emulated sleeps downstream. One second is
// far above any timer overshoot and covers a host stall long enough to
// trip the failure detector anyway.
const MaxLag = time.Second

// clampLag saturates d into [0, MaxLag].
func clampLag(d time.Duration) time.Duration {
	return max(0, min(d, MaxLag))
}

// control reports whether the message is a control message (heartbeats and
// future verbs) rather than a data chunk. Control messages cross in the same
// binary frame as chunks, with Lag 0; payload codecs (deflate, quant) pass
// them through untransformed and chaos never drops them.
func (m *Message) control() bool { return m.Volume < VolInput }

// Conn is one directed framed connection. Send is safe for concurrent use;
// Recv must be called from a single reader goroutine. Closing either end
// fails subsequent Sends on both and makes Recv return an error once any
// already-delivered messages are drained.
type Conn interface {
	Send(m Message) error
	Recv() (Message, error)
	Close() error
}

// Listener accepts inbound connections for one endpoint. Addr returns the
// string other endpoints pass to Transport.Dial; its format is
// transport-specific and opaque to callers.
type Listener interface {
	Accept() (Conn, error)
	Addr() string
	Close() error
}

// Transport creates listeners and dials peers. `self` is the caller's
// device index (Requester for the service requester); plain transports
// (tcp, inproc) ignore it, while decorators (shaped, chaos) use it to
// attribute traffic to the right link.
type Transport interface {
	Listen(self int) (Listener, error)
	Dial(self int, addr string) (Conn, error)
	Name() string
}

// ErrClosed is returned for operations on a closed connection or listener.
var ErrClosed = errors.New("transport: closed")

// encodeDevAddr prefixes an inner address with the listener's device index
// so decorating transports can recover the destination endpoint at Dial
// time without a side-channel address registry.
func encodeDevAddr(dev int, addr string) string {
	return strconv.Itoa(dev) + "|" + addr
}

// devListener is a decorator's listener: it publishes the endpoint's
// device index in its address so dialling peers know which directed link
// they are on (the link Shaped charges, the one Chaos drops and
// partitions). Accepted conns pass through undecorated: the decorators act
// on the dialling side's sends, and the runtime only sends on dialled
// connections.
type devListener struct {
	ln   Listener
	self int
}

func (l *devListener) Accept() (Conn, error) { return l.ln.Accept() }
func (l *devListener) Addr() string          { return encodeDevAddr(l.self, l.ln.Addr()) }
func (l *devListener) Close() error          { return l.ln.Close() }

// splitDevAddr reverses encodeDevAddr.
func splitDevAddr(addr string) (int, string, error) {
	devSpec, rest, ok := strings.Cut(addr, "|")
	if !ok {
		return 0, "", fmt.Errorf("transport: address %q lacks a device prefix", addr)
	}
	dev, err := strconv.Atoi(devSpec)
	if err != nil {
		return 0, "", fmt.Errorf("transport: bad device in address %q: %v", addr, err)
	}
	return dev, rest, nil
}
