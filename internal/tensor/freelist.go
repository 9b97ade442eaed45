package tensor

import (
	"sync"
	"unsafe"
)

// BufferPool is a free list of buffers that every goroutine shares: the
// GEMM's pack buffers and the conv workspaces, each asked for one length,
// and the activations in nn, the wire bytes in protocol and the request
// floats in cloud, whose lengths follow the caller's batch. It retains at
// most capacity buffers of at most maxSize elements each, and at most
// maxBytes bytes of them in all. Unlike a sync.Pool it is never emptied by
// the garbage collector and has no per-P slots, and running more users at
// once than its capacity costs garbage, never correctness.
//
// Get hands out the shortest retained buffer that holds n elements and is
// shorter than 2n, so a request never takes a buffer twice its size: a
// result that escapes its caller pins less than twice its own bytes, and the
// pool's lengths follow the requests' instead of the longest ones serving
// everything. A Get it cannot serve allocates exactly n elements, which the
// pool may retain once they come back. A Put of a buffer longer than maxSize
// drops it, and a Put to a full pool first drops the buffers put longest
// ago, so the pool follows the sizes the current traffic asks for.
type BufferPool[T element] struct {
	maxSize, maxBytes int

	mu    sync.Mutex
	bufs  [][]T // guarded by mu; oldest first
	bytes int   // guarded by mu; Σ cap(bufs) times the element size
}

// element is what a BufferPool holds.
type element interface{ ~byte | ~float32 }

// NewBufferPool returns an empty pool of float32 buffers that retains at
// most capacity buffers, each of at most maxSize floats, holding at most
// maxBytes bytes.
func NewBufferPool(maxSize, capacity, maxBytes int) *BufferPool[float32] {
	return NewBufferPoolOf[float32](maxSize, capacity, maxBytes)
}

// NewBufferPoolOf returns an empty pool of T buffers that retains at most
// capacity buffers, each of at most maxSize elements, holding at most
// maxBytes bytes.
func NewBufferPoolOf[T element](maxSize, capacity, maxBytes int) *BufferPool[T] {
	return &BufferPool[T]{maxSize: maxSize, maxBytes: maxBytes, bufs: make([][]T, 0, capacity)}
}

// sizeOf is the bytes of storage b's capacity spans.
func sizeOf[T element](b []T) int {
	var e T
	return int(unsafe.Sizeof(e)) * cap(b)
}

// Get returns a buffer of n elements holding arbitrary values.
func (p *BufferPool[T]) Get(n int) []T {
	if n == 0 || n > p.maxSize {
		return make([]T, n)
	}
	p.mu.Lock()
	best := -1
	for i := len(p.bufs) - 1; i >= 0; i-- { // newest first: an exact fit ends the search
		if c := cap(p.bufs[i]); c >= n && c < 2*n && (best < 0 || c < cap(p.bufs[best])) {
			if best = i; c == n {
				break
			}
		}
	}
	if best < 0 {
		p.mu.Unlock()
		return make([]T, n)
	}
	b := p.bufs[best]
	p.drop(best)
	p.mu.Unlock()
	return b[:n]
}

// Put hands b back to the pool, or drops it when it is longer than maxSize.
// The caller must not use b, or any slice of its storage, afterwards.
func (p *BufferPool[T]) Put(b []T) {
	size := sizeOf(b)
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
func (p *BufferPool[T]) drop(i int) {
	p.bytes -= sizeOf(p.bufs[i])
	last := len(p.bufs) - 1
	copy(p.bufs[i:], p.bufs[i+1:])
	p.bufs[last] = nil
	p.bufs = p.bufs[:last]
}

// Bytes reports the bytes of storage the pool retains.
func (p *BufferPool[T]) Bytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}
