package tensor

import "testing"

// TestBufferPoolContract pins what BufferPool's callers rely on: a miss
// allocates exactly the length asked for, a hit never hands out a buffer
// twice the request or longer, a full pool drops the buffers put longest
// ago, and neither the count nor the byte bound is ever exceeded.
func TestBufferPoolContract(t *testing.T) {
	const maxSize, capacity, maxBytes = 100, 3, 4 * 250
	p := NewBufferPool(maxSize, capacity, maxBytes)
	if b := p.Get(40); len(b) != 40 || cap(b) != 40 {
		t.Fatalf("miss on an empty pool: len %d cap %d, want exactly 40", len(b), cap(b))
	}
	p.Put(make([]float32, 80))
	if b := p.Get(40); cap(b) != 40 {
		t.Fatalf("a request of 40 took a buffer of %d: want a fresh exact one, 80 is twice the request", cap(b))
	}
	if b := p.Get(41); len(b) != 41 || cap(b) != 80 {
		t.Fatalf("a request of 41 got len %d cap %d, want the retained 80", len(b), cap(b))
	}
	if p.Bytes() != 0 {
		t.Fatalf("pool holds %d bytes after handing out its only buffer", p.Bytes())
	}

	p.Put(make([]float32, maxSize+1)) // longer than maxSize: dropped
	p.Put(make([]float32, 0))         // no storage: dropped
	if p.Bytes() != 0 {
		t.Fatalf("pool kept a buffer it must drop: %d bytes", p.Bytes())
	}

	// Count bound: the fourth Put drops the oldest (10).
	for _, n := range []int{10, 20, 30, 40} {
		p.Put(make([]float32, n))
	}
	if got, want := p.Bytes(), 4*(20+30+40); got != want {
		t.Fatalf("after four Puts into a pool of three: %d bytes, want %d", got, want)
	}
	if b := p.Get(10); cap(b) != 10 || p.Bytes() != 4*(20+30+40) {
		t.Fatalf("the oldest buffer was not the one dropped: got cap %d, pool %d bytes", cap(b), p.Bytes())
	}
	// Byte bound: a pool of 150 floats holding 60 and 50 drops the 60,
	// the older, to take a 70 although it has room for a third buffer.
	q := NewBufferPool(maxSize, capacity, 4*150)
	q.Put(make([]float32, 60))
	q.Put(make([]float32, 50))
	q.Put(make([]float32, 70))
	if got, want := q.Bytes(), 4*(50+70); got != want {
		t.Fatalf("after a Put over the byte bound: %d bytes, want %d", got, want)
	}
	if b := q.Get(36); cap(b) != 50 {
		t.Fatalf("a request of 36 got cap %d, want the shortest fitting buffer, 50", cap(b))
	}
	if b := q.Get(36); cap(b) != 70 {
		t.Fatalf("a request of 36 got cap %d, want the retained 70", cap(b))
	}

	// The []byte instantiation, the wire pool's: the same rules, with
	// lengths and the byte bound both counted in bytes.
	w := NewBufferPoolOf[byte](maxSize, capacity, 150)
	if b := w.Get(40); len(b) != 40 || cap(b) != 40 {
		t.Fatalf("bytes: miss on an empty pool: len %d cap %d, want exactly 40", len(b), cap(b))
	}
	w.Put(make([]byte, 80))
	if b := w.Get(40); cap(b) != 40 {
		t.Fatalf("bytes: a request of 40 took a buffer of %d, twice the request", cap(b))
	}
	if b := w.Get(41); len(b) != 41 || cap(b) != 80 {
		t.Fatalf("bytes: a request of 41 got len %d cap %d, want the retained 80", len(b), cap(b))
	}
	w.Put(make([]byte, maxSize+1))
	if w.Bytes() != 0 {
		t.Fatalf("bytes: pool kept a buffer longer than maxSize: %d bytes", w.Bytes())
	}
	for _, n := range []int{10, 20, 30, 40} {
		w.Put(make([]byte, n))
	}
	if got, want := w.Bytes(), 20+30+40; got != want {
		t.Fatalf("bytes: after four Puts into a pool of three: %d bytes, want %d", got, want)
	}
	w.Put(make([]byte, 90)) // the count drops the 20, the 150-byte bound the 30
	if got, want := w.Bytes(), 40+90; got != want {
		t.Fatalf("bytes: after a Put over the byte bound: %d bytes, want %d", got, want)
	}
}
