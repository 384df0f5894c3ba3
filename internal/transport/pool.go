package transport

import (
	"math/bits"
	"sync"
)

// Pool recycles chunk payload buffers. The runtime allocates one payload
// per chunk on the serving path (scatter rows, halo exchanges, results);
// with a pool those buffers cycle between the producer, the wire and the
// consumer instead of being garbage after one hop. Buffers are kept in
// power-of-two size-class buckets so a deployment's handful of distinct
// payload sizes never evict each other. The pooled transports all share
// one process-wide Pool (payloads); the zero Pool is empty and ready to
// use.
//
// Ownership protocol (documented on PayloadPool): Send transfers payload
// ownership to the transport, and payloads returned by Recv belong to the
// caller, who hands exhausted ones back with Put. A nil *Pool is valid and
// degrades to plain allocation.
//
// A bucket files each buffer in a *[]byte holder, not as a bare []byte:
// sync.Pool stores an `any`, and a slice header is three words, so boxing
// one into an interface is a heap allocation on every Put. A pointer fits
// the interface word as is. Emptied holders cycle through a second
// sync.Pool, so in steady state Get and Put allocate nothing.
// numBuckets covers size classes up to 1<<32 bytes; larger buffers bypass
// the pool entirely.
const numBuckets = 33

type Pool struct {
	buckets [numBuckets]sync.Pool // of *[]byte holding a buffer
	holders sync.Pool             // of empty *[]byte
}

// payloads is the process's one payload pool: every pooled transport
// (NewPooledTCP, NewPooledInproc) draws from it and recycles into it, as
// every deflate codec shares one set of flate states. A payload buffer is
// a process resource, not a cluster's: when a cluster closes, its idle
// buffers serve the next cluster's first images instead of sitting in a
// dead pool's victim cache while a fresh pool allocates the same sizes
// again. The GC still releases whatever stays idle over two collections.
var payloads Pool

// Get returns a length-n buffer, reusing a pooled one when the size class
// has any. Sizes beyond the largest bucket (4 GiB) bypass the pool.
func (p *Pool) Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	k := bits.Len(uint(n - 1)) // smallest k with n <= 1<<k
	if k >= numBuckets {
		return make([]byte, n)
	}
	if p != nil {
		if h, ok := p.buckets[k].Get().(*[]byte); ok {
			b := *h
			*h = nil // the holder must not pin a buffer it no longer files
			p.holders.Put(h)
			return b[:n]
		}
	}
	return make([]byte, n, 1<<k)
}

// Put hands a buffer back for reuse. Buffers are filed under the largest
// power of two their capacity covers, so a later Get in that class always
// fits. Nil, zero-capacity and beyond-bucket buffers are ignored.
func (p *Pool) Put(b []byte) {
	if p == nil || cap(b) == 0 {
		return
	}
	k := bits.Len(uint(cap(b))) - 1 // largest k with 1<<k <= cap
	if k >= numBuckets {
		return
	}
	h, ok := p.holders.Get().(*[]byte)
	if !ok {
		h = new([]byte)
	}
	*h = b[:0]
	p.buckets[k].Put(h)
}

// PayloadPool is implemented by transports whose connections recycle
// payload buffers. The ownership contract it formalises was already the
// runtime's behaviour: a payload is never touched after Send (inproc hands
// it to the receiver by reference), and a payload returned by Recv is
// consumed and dropped. With a pool attached, "dropped" becomes
// PutPayload and fresh payloads come from GetPayload.
type PayloadPool interface {
	// GetPayload returns a length-n payload buffer for an upcoming Send.
	GetPayload(n int) []byte
	// PutPayload recycles a payload whose consumer is done with it.
	PutPayload(b []byte)
}

// GetPayload draws a payload buffer from the transport's pool when it has
// one (decorators forward to their inner transport), else allocates.
func GetPayload(t Transport, n int) []byte {
	if pp, ok := t.(PayloadPool); ok {
		return pp.GetPayload(n)
	}
	return make([]byte, n)
}

// RecyclePayload hands a consumed payload back to the transport's pool,
// if it has one; otherwise the buffer is simply left to the GC.
func RecyclePayload(t Transport, b []byte) {
	if pp, ok := t.(PayloadPool); ok {
		pp.PutPayload(b)
	}
}
