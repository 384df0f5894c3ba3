package gateway

// The per-tenant backlogs are ring deques: head pops (admission, expiry)
// are allocation-free and drop their reference at once, where a slice queue
// would pin its popped prefix until reallocation.

// ring is a growable FIFO deque of requests backed by a power-of-two
// circular buffer. front/pop require a non-empty ring.
type ring struct {
	buf  []*request
	head int
	size int
}

func (r *ring) len() int { return r.size }

func (r *ring) front() *request { return r.buf[r.head] }

func (r *ring) push(x *request) {
	if r.size == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = x
	r.size++
}

func (r *ring) pop() *request {
	x := r.buf[r.head]
	r.buf[r.head] = nil // drop the reference; expired requests must not pin memory
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.size--
	return x
}

func (r *ring) grow() {
	n := len(r.buf) * 2
	if n == 0 {
		n = 8
	}
	buf := make([]*request, n)
	for i := 0; i < r.size; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}
