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
