package edge

import (
	"fmt"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/linkest"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// Transport is one edge-side connection to the cloud tier, whatever is behind
// it: a TCP connection (*TCPClient), a routed replica set (*MultiClient), a
// partitioned chain (*ChainClient) or an in-process model (*InProcClient).
// Every cloud-bound decision of Algorithm 2 is the one call Infer — ship a
// tensor, get labels back — and the request's representation says where in
// the network the tensor starts. The rest are the read-only signals the
// runtime, the router and a stage hop steer by; a transport that does not
// measure one answers its zero value.
type Transport interface {
	// Infer round-trips one inference request. A refusal by admission control
	// surfaces as an error wrapping protocol.ErrShed (a *protocol.ShedError).
	Infer(req protocol.InferRequest) (protocol.InferReply, error)
	// Probe traverses a chain with a zero-instance request — every transport
	// leg, no stage — and returns the per-hop status vector.
	Probe(ttl uint8) ([]protocol.StageStatus, error)
	// Ping verifies the transport end to end.
	Ping() error
	// LinkEstimate is the live uplink estimate (Samples 0 = not measured).
	LinkEstimate() linkest.Estimate
	// CloudLoad is the server load last piggybacked on a reply.
	CloudLoad() (protocol.LoadStatus, bool)
	// Capabilities is what the far end can serve; ok false means unknown —
	// route optimistically.
	Capabilities() (caps protocol.Capabilities, ok bool)
	// BytesSent is the cumulative wire bytes uploaded, frame headers included.
	BytesSent() uint64
	// Close releases the transport.
	Close() error
}

// CloudClient is the classic call surface over a transport: raw images in,
// predictions out. All four built-in transports carry it (see calls); a
// CloudClient that is NOT a Transport — a decorator, a test fake — is adapted
// wherever one can enter (see asTransport).
type CloudClient interface {
	// Classify sends one CHW image and returns the cloud's prediction.
	Classify(img *tensor.Tensor) (pred int, conf float64, err error)
	// ClassifyBatch sends same-shaped CHW images in ONE round trip and
	// returns per-image predictions. An error fails the whole call.
	ClassifyBatch(imgs []*tensor.Tensor) (preds []int, confs []float64, err error)
	// Close releases the transport.
	Close() error
}

// calls is the CloudClient call surface — and its features twin — written
// once over a transport's Infer: a transport embeds it and points infer at its
// own method.
type calls struct {
	infer func(protocol.InferRequest) (protocol.InferReply, error)
}

// one sends one CHW tensor in rep — a batch-of-one request, the way into a
// batching server's collector.
func (c calls) one(rep protocol.Rep, x *tensor.Tensor) (int, float64, error) {
	if x.Dims() != 3 {
		return 0, 0, fmt.Errorf("edge: expected one CHW tensor, got shape %v", x.Shape())
	}
	reply, err := c.infer(protocol.InferRequest{Rep: rep, Tensor: x})
	if err != nil {
		return 0, 0, err
	}
	return int(reply.Results[0].Pred), float64(reply.Results[0].Conf), nil
}

// many stacks same-shaped CHW tensors into one NCHW request in rep.
func (c calls) many(rep protocol.Rep, xs []*tensor.Tensor) ([]int, []float64, error) {
	batch, err := stackCHW(xs)
	if err != nil {
		return nil, nil, err
	}
	reply, err := c.infer(protocol.InferRequest{Rep: rep, Tensor: batch})
	if err != nil {
		return nil, nil, err
	}
	preds, confs := unpack(reply.Results)
	return preds, confs, nil
}

func (c calls) Classify(img *tensor.Tensor) (int, float64, error) {
	return c.one(protocol.RepRaw, img)
}
func (c calls) ClassifyBatch(imgs []*tensor.Tensor) ([]int, []float64, error) {
	return c.many(protocol.RepRaw, imgs)
}
func (c calls) ClassifyFeatures(feat *tensor.Tensor) (int, float64, error) {
	return c.one(protocol.RepFeatures, feat)
}
func (c calls) ClassifyFeaturesBatch(feats []*tensor.Tensor) ([]int, []float64, error) {
	return c.many(protocol.RepFeatures, feats)
}

// unpack splits wire results into the prediction and confidence columns.
func unpack(rs []protocol.Result) ([]int, []float64) {
	preds := make([]int, len(rs))
	confs := make([]float64, len(rs))
	for i, r := range rs {
		preds[i], confs[i] = int(r.Pred), float64(r.Conf)
	}
	return preds, confs
}

// stackCHW validates same-shaped CHW tensors and stacks them into one NCHW
// batch.
func stackCHW(ts []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("edge: batch with no tensors")
	}
	shape := ts[0].Shape()
	if len(shape) != 3 {
		return nil, fmt.Errorf("edge: batch expects CHW tensors, got shape %v", shape)
	}
	batch := tensor.New(append([]int{len(ts)}, shape...)...)
	for i, img := range ts {
		if !img.SameShape(ts[0]) {
			return nil, fmt.Errorf("edge: batch tensor %d has shape %v, want %v", i, img.Shape(), shape)
		}
		copy(batch.Sample(i).Data(), img.Data())
	}
	return batch, nil
}

// Offload is the core.CloudBatchFunc over a transport: the stacked
// cloud-qualifying sub-batch InferBatchedRep gathered goes out as ONE request
// in rep, and a transport error fails the whole call, so the batch falls back
// to the edge.
func Offload(t Transport, rep protocol.Rep) core.CloudBatchFunc {
	return func(sub *tensor.Tensor) ([]int, error) {
		reply, err := t.Infer(protocol.InferRequest{Rep: rep, Tensor: sub})
		if err != nil {
			return nil, fmt.Errorf("edge: cloud %s offload: %w", rep, err)
		}
		preds, _ := unpack(reply.Results)
		return preds, nil
	}
}

// foreign adapts a CloudClient that is not a Transport. It carries raw
// requests only, through the client's own Classify/ClassifyBatch — so a
// decorator's instrumentation still sees every call — says so in
// Capabilities, and passes through whichever live signals the client
// happens to measure.
type foreign struct {
	NoWire
	c     CloudClient
	link  func() linkest.Estimate
	load  func() (protocol.LoadStatus, bool)
	bytes func() uint64
}

// asTransport is the one place a CloudClient becomes a Transport: NewRuntime
// and NewMultiClient, the two entry points that take a CloudClient, call it.
// nil stays nil.
func asTransport(c CloudClient) Transport {
	if c == nil {
		return nil
	}
	if t, ok := c.(Transport); ok {
		return t
	}
	f := &foreign{c: c, link: NoWire{}.LinkEstimate, load: NoWire{}.CloudLoad, bytes: NoWire{}.BytesSent}
	if le, ok := c.(interface{ LinkEstimate() linkest.Estimate }); ok {
		f.link = le.LinkEstimate
	}
	if lr, ok := c.(interface {
		CloudLoad() (protocol.LoadStatus, bool)
	}); ok {
		f.load = lr.CloudLoad
	}
	if bc, ok := c.(interface{ BytesSent() uint64 }); ok {
		f.bytes = bc.BytesSent
	}
	return f
}

// rawOnly checks a request bound for a transport that carries only raw ones.
func rawOnly(req protocol.InferRequest) error {
	if req.Rep != protocol.RepRaw {
		return fmt.Errorf("edge: this transport carries raw requests only, not %s", req.Rep)
	}
	return req.Validate()
}

func (f *foreign) Infer(req protocol.InferRequest) (protocol.InferReply, error) {
	if err := rawOnly(req); err != nil {
		return protocol.InferReply{}, err
	}
	if req.OneInstance() {
		pred, conf, err := f.c.Classify(req.Tensor)
		return protocol.InferReply{Results: []protocol.Result{{Pred: int32(pred), Conf: float32(conf)}}}, err
	}
	imgs := make([]*tensor.Tensor, req.Tensor.Dim(0))
	for i := range imgs {
		imgs[i] = req.Tensor.Sample(i)
	}
	preds, confs, err := f.c.ClassifyBatch(imgs)
	if err == nil && (len(preds) != len(imgs) || len(confs) != len(imgs)) {
		err = fmt.Errorf("edge: cloud client returned %d/%d results for %d instances", len(preds), len(confs), len(imgs))
	}
	if err != nil {
		return protocol.InferReply{}, err
	}
	reply := protocol.InferReply{Results: make([]protocol.Result, len(preds))}
	for i := range preds {
		reply.Results[i] = protocol.Result{Pred: int32(preds[i]), Conf: float32(confs[i])}
	}
	return reply, nil
}

func (f *foreign) LinkEstimate() linkest.Estimate              { return f.link() }
func (f *foreign) CloudLoad() (protocol.LoadStatus, bool)      { return f.load() }
func (f *foreign) Capabilities() (protocol.Capabilities, bool) { return protocol.Capabilities{}, true }
func (f *foreign) BytesSent() uint64                           { return f.bytes() }
func (f *foreign) Close() error                                { return f.c.Close() }
