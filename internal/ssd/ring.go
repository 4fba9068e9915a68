package ssd

// ring is a FIFO queue over a power-of-two circular buffer. It doubles
// when full and never shrinks, so once a queue has reached its run's peak
// depth, push and pop allocate nothing.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the oldest element; the ring must not be empty.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // drop the reference for the garbage collector
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// grow doubles the full buffer, unwrapping it so the oldest element lands
// at index 0.
func (r *ring[T]) grow() {
	buf := make([]T, max(8, 2*len(r.buf)))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
