package tensor

import "sync"

// FreeList is a stack of equal-size float32 buffers that every goroutine
// shares, holding at most a constant number of them. Kernels take their
// scratch from one and give it back when done, so a product or a layer
// allocates nothing in steady state however often it runs.
//
// Unlike a sync.Pool, a FreeList is never emptied by the garbage collector
// and has no per-P slots: a buffer put back on one P is taken on the next
// Get from any P. The price is a mutex held for a slice push or pop, and the
// bytes it retains, at most capacity·size·4, for the life of the process.
// A Get from an empty list allocates, and a Put to a full one drops the
// buffer, so running more scratch users at once than the capacity costs
// garbage, never correctness.
type FreeList struct {
	size int

	mu   sync.Mutex
	bufs [][]float32 // guarded by mu
}

// NewFreeList returns an empty list of size-float buffers that retains at
// most capacity of them.
func NewFreeList(size, capacity int) *FreeList {
	return &FreeList{size: size, bufs: make([][]float32, 0, capacity)}
}

// Get returns a buffer of the list's size holding arbitrary values.
func (l *FreeList) Get() []float32 {
	l.mu.Lock()
	if n := len(l.bufs); n > 0 {
		b := l.bufs[n-1]
		l.bufs[n-1] = nil
		l.bufs = l.bufs[:n-1]
		l.mu.Unlock()
		return b
	}
	l.mu.Unlock()
	return make([]float32, l.size)
}

// Put hands b, a buffer from Get, back to the list, or drops it when the
// list is full. The caller must not use b afterwards.
func (l *FreeList) Put(b []float32) {
	b = b[:l.size]
	l.mu.Lock()
	if len(l.bufs) < cap(l.bufs) {
		l.bufs = append(l.bufs, b)
	}
	l.mu.Unlock()
}

// BufferPool is a free list of float32 buffers of varying length that every
// goroutine shares. It recycles results whose length depends on the
// caller's batch, which a FreeList of equal-size buffers cannot serve
// without rounding every request up to its largest size. It retains at
// most capacity buffers of at most maxSize floats each, and at most maxBytes
// bytes of them in all.
//
// Get hands out the shortest retained buffer that holds n floats and is
// shorter than 2n, so a request never takes a buffer twice its size: a
// result that escapes its caller pins less than twice its own bytes, and the
// pool's lengths follow the requests' instead of the longest ones serving
// everything. A Get it cannot serve allocates exactly n floats, which the
// pool may retain once they come back. A Put of a buffer longer than maxSize
// drops it, and a Put to a full pool first drops the buffers put longest
// ago, so the pool follows the sizes the current traffic asks for.
type BufferPool struct {
	maxSize, maxBytes int

	mu    sync.Mutex
	bufs  [][]float32 // guarded by mu; oldest first
	bytes int         // guarded by mu; 4·Σ cap(bufs)
}

// NewBufferPool returns an empty pool that retains at most capacity
// buffers, each of at most maxSize floats, holding at most maxBytes bytes.
func NewBufferPool(maxSize, capacity, maxBytes int) *BufferPool {
	return &BufferPool{maxSize: maxSize, maxBytes: maxBytes, bufs: make([][]float32, 0, capacity)}
}

// Get returns a buffer of n floats holding arbitrary values.
func (p *BufferPool) Get(n int) []float32 {
	if n == 0 || n > p.maxSize {
		return make([]float32, n)
	}
	p.mu.Lock()
	best := -1
	for i, b := range p.bufs {
		if c := cap(b); c >= n && c < 2*n && (best < 0 || c < cap(p.bufs[best])) {
			best = i
		}
	}
	if best < 0 {
		p.mu.Unlock()
		return make([]float32, n)
	}
	b := p.bufs[best]
	p.drop(best)
	p.mu.Unlock()
	return b[:n]
}

// Put hands b back to the pool, or drops it when it is longer than maxSize.
// The caller must not use b, or any slice of its storage, afterwards.
func (p *BufferPool) Put(b []float32) {
	size := 4 * cap(b)
	if size == 0 || cap(b) > p.maxSize || size > p.maxBytes {
		return
	}
	p.mu.Lock()
	for len(p.bufs) > 0 && (len(p.bufs) == cap(p.bufs) || p.bytes+size > p.maxBytes) {
		p.drop(0)
	}
	if len(p.bufs) < cap(p.bufs) {
		p.bufs = append(p.bufs, b[:cap(b)])
		p.bytes += size
	}
	p.mu.Unlock()
}

// drop removes bufs[i], keeping the others in the order they were put.
// The caller holds p.mu.
func (p *BufferPool) drop(i int) {
	p.bytes -= 4 * cap(p.bufs[i])
	last := len(p.bufs) - 1
	copy(p.bufs[i:], p.bufs[i+1:])
	p.bufs[last] = nil
	p.bufs = p.bufs[:last]
}

// Bytes reports the bytes of storage the pool retains.
func (p *BufferPool) Bytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}
