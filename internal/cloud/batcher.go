package cloud

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// BatchConfig tunes the server's micro-batching layer: concurrent classify
// requests are coalesced into one batched forward pass of up to MaxBatch
// images, waiting at most Linger for stragglers once the first request of a
// batch has arrived.
type BatchConfig struct {
	// MaxBatch is the largest number of requests fused into one forward
	// pass (default 32).
	MaxBatch int
	// Linger is how long the collector holds an incomplete batch open
	// before running it (default 2ms). Zero keeps the default; batching
	// with no linger at all is just the unbatched path.
	Linger time.Duration
}

func (c *BatchConfig) fillDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.Linger <= 0 {
		c.Linger = 2 * time.Millisecond
	}
}

var errBatcherClosed = errors.New("cloud: server closed")

type batchRequest struct {
	img  *tensor.Tensor // CHW image
	resp chan batchResponse
}

type batchResponse struct {
	pred int32
	conf float32
	err  error
}

// batcher coalesces concurrent single-image classify requests into batched
// forward passes. Requests are grouped by image shape: a request whose
// geometry differs from the batch being collected flushes that batch and
// opens a new one, so a malformed request can only fail requests that share
// its (equally malformed) shape.
type batcher struct {
	cfg   BatchConfig
	infer func(*tensor.Tensor) *tensor.Tensor // batched NCHW -> logits [N,classes]

	reqs chan batchRequest
	done chan struct{}
	wg   sync.WaitGroup

	closeOnce sync.Once

	batches     atomic.Uint64 // forward passes run
	batchedReqs atomic.Uint64 // requests served through those passes
	queued      atomic.Int64  // requests accepted but not yet answered
}

// newBatcher starts the collector goroutine.
func newBatcher(cfg BatchConfig, infer func(*tensor.Tensor) *tensor.Tensor) *batcher {
	cfg.fillDefaults()
	b := &batcher{
		cfg:   cfg,
		infer: infer,
		reqs:  make(chan batchRequest),
		done:  make(chan struct{}),
	}
	b.wg.Add(1)
	go b.collect()
	return b
}

// classify submits one CHW image and blocks until its slot of the batched
// forward completes (or the batcher shuts down).
func (b *batcher) classify(img *tensor.Tensor) (int32, float32, error) {
	req := batchRequest{img: img, resp: make(chan batchResponse, 1)}
	// queued counts requests PARKED ahead of a forward pass (the
	// backpressure signal); run() decrements it when the batch starts
	// executing. Every submitted request reaches run() exactly once — the
	// collector serves accepted batches even during shutdown, and a
	// shape-flushed pending request seeds the next batch unconditionally.
	b.queued.Add(1)
	select {
	case b.reqs <- req:
	case <-b.done:
		b.queued.Add(-1) // never submitted
		return 0, 0, errBatcherClosed
	}
	// Once the collector has accepted the request (the unbuffered send above
	// succeeded), it always delivers a response before exiting: on shutdown
	// it still runs the batch it accumulated, and a shape-flushed pending
	// request seeds the next batch unconditionally. Waiting on resp alone —
	// never racing it against the done signal — means a batch that ran to
	// completion during shutdown reports its real result instead of a bogus
	// errBatcherClosed.
	r := <-req.resp
	return r.pred, r.conf, r.err
}

// depth reports the requests parked ahead of a forward pass — the
// queue-depth half of the backpressure signal piggybacked on replies.
// Requests whose batch is currently executing are not parked (they count as
// served in the server's Active number instead).
func (b *batcher) depth() int64 { return b.queued.Load() }

// close stops the collector. Safe to call multiple times.
func (b *batcher) close() {
	b.closeOnce.Do(func() { close(b.done) })
	b.wg.Wait()
}

func (b *batcher) collect() {
	defer b.wg.Done()
	var pending *batchRequest // first request of the next batch, set on a shape flush
	for {
		var first batchRequest
		if pending != nil {
			first, pending = *pending, nil
		} else {
			select {
			case first = <-b.reqs:
			case <-b.done:
				return
			}
		}
		batch := append(make([]batchRequest, 0, b.cfg.MaxBatch), first)
		timer := time.NewTimer(b.cfg.Linger)
	fill:
		for len(batch) < b.cfg.MaxBatch {
			select {
			case r := <-b.reqs:
				if !r.img.SameShape(first.img) {
					pending = &r
					break fill
				}
				batch = append(batch, r)
			case <-timer.C:
				break fill
			case <-b.done:
				break fill // serve what was already accepted, then exit
			}
		}
		timer.Stop()
		b.run(batch)
	}
}

// run stacks a shape-uniform batch into one NCHW tensor, executes a single
// forward pass and fans the per-row results (or a shared error) back out.
func (b *batcher) run(batch []batchRequest) {
	b.queued.Add(-int64(len(batch))) // now executing, no longer parked
	x := tensor.New(append([]int{len(batch)}, batch[0].img.Shape()...)...)
	for i, r := range batch {
		copy(x.Sample(i).Data(), r.img.Data())
	}
	logits, err := safeLogits(b.infer, x)
	if err != nil {
		for _, r := range batch {
			r.resp <- batchResponse{err: err}
		}
		return
	}
	b.batches.Add(1)
	b.batchedReqs.Add(uint64(len(batch)))
	for i, r := range batch {
		res := protocol.ResultOf(logits.Row(i))
		r.resp <- batchResponse{pred: res.Pred, conf: res.Conf}
	}
}
