// Package protocol defines the binary wire format between the edge runtime
// and the cloud AI server: length-prefixed frames, ONE inference request
// (MsgInfer: a small header saying where in the network the tensor starts,
// then the tensor), ONE reply layout, and the control frames around them.
// The paper's collaboration modes (§III-C: sending raw data or processed
// features) and the multi-hop partitioned chain differ only in the request's
// representation byte.
//
// The bytes of a frame and the floats of a decoded request come from bounded,
// process-wide pools, and every stage of a round trip hands them back as soon
// as it is done. Who owns what:
//
//   - WriteFrame assembles header and payload in a pooled buffer, passes it
//     to ONE Write and takes it back when Write returns, so an io.Writer
//     given to WriteFrame must not retain p (io.Writer's own contract; every
//     Write in this tree forwards or counts p and returns).
//   - ReadFrame reads the payload into a pooled buffer (a payload under
//     256 bytes is a plain allocation) that the caller then owns. The owner
//     calls Frame.Release once it is done with the payload and every slice
//     of it — after the decode that copies out what it needs, or at once
//     for a frame it drops — and never touches the payload again. A frame
//     that is never released is only garbage: the pool allocates afresh.
//   - NewBuffer hands out a pooled buffer for AppendInfer to encode a
//     request into; the sender Recycles it once WriteFrame has returned.
//   - DecodeInferWith takes the tensor's storage from a caller's source (a
//     server's float pool), so the payload can go back before the tensor is
//     used, and the tensor's storage back once its forward is read.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"github.com/meanet/meanet/internal/tensor"
)

// MsgType discriminates frame payloads.
type MsgType uint8

// Message types. Wire values are pinned (TestMsgTypeWireValuesStable) and
// never reused: 1, 2, 3, 7, 9 and 13 carried the per-representation classify
// and relay frames MsgInfer replaced, and stay retired (see Retired).
const (
	MsgError       MsgType = 4  // payload: UTF-8 error text
	MsgPing        MsgType = 5  // empty payload
	MsgPong        MsgType = 6  // empty payload
	MsgResultBatch MsgType = 8  // payload: InferReply
	MsgShed        MsgType = 10 // payload: retry-after nanos + LoadStatus
	MsgHello       MsgType = 11 // request: empty; reply payload: Capabilities
	MsgRelay       MsgType = 12 // payload: relay TTL byte (zero-instance chain probe)
	MsgInfer       MsgType = 14 // payload: InferRequest
)

// Retired reports whether t is the wire value of a frame that no longer
// exists. A server answers one with a MsgError naming MsgInfer.
func (t MsgType) Retired() bool {
	switch t {
	case 1, 2, 3, 7, 9, 13:
		return true
	}
	return false
}

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgError:
		return "error"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgResultBatch:
		return "result-batch"
	case MsgShed:
		return "shed"
	case MsgHello:
		return "hello"
	case MsgRelay:
		return "relay"
	case MsgInfer:
		return "infer"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

const (
	magic = "MEA1"
	// MaxPayload bounds frame payloads; larger frames indicate corruption or
	// abuse and are rejected before allocation.
	MaxPayload = 64 << 20
	headerLen  = 4 + 1 + 8 + 4 // magic + type + id + length
)

// Frame is one protocol message. A frame ReadFrame returns owns a pooled
// payload: see Release.
type Frame struct {
	Type    MsgType
	ID      uint64
	Payload []byte
}

// Wire pool bounds: at most wireBufs buffers and MaxPoolBytes bytes, none
// longer than wireBufMax bytes. A longer frame is a plain allocation and is
// never kept. So is one shorter than wireBufMin bytes — a reply, a control
// frame — since allocating it costs less than the pool's lock and search.
const (
	wireBufs     = 64
	wireBufMin   = 256
	wireBufMax   = 1 << 20
	MaxPoolBytes = 8 << 20
)

// wire holds the frame buffers, payloads and encoded requests of every
// connection in the process.
var wire = tensor.NewBufferPoolOf[byte](wireBufMax, wireBufs, MaxPoolBytes)

// getWire returns n bytes holding arbitrary values, from the wire pool
// unless n is under wireBufMin.
func getWire(n int) []byte {
	if n < wireBufMin {
		return make([]byte, n)
	}
	return wire.Get(n)
}

// putWire hands b back to the wire pool unless it is under wireBufMin.
func putWire(b []byte) {
	if cap(b) >= wireBufMin {
		wire.Put(b)
	}
}

// held counts the payloads ReadFrame handed out that no Release returned.
var held atomic.Int64

// NewBuffer returns an empty buffer with room for n bytes from the wire pool,
// for AppendInfer to encode into. Hand it back with Recycle.
func NewBuffer(n int) []byte { return getWire(n)[:0] }

// Recycle hands b back to the wire pool: a buffer from NewBuffer, or any
// other the caller owns outright. The caller must not use b, or any slice of
// it, afterwards.
func Recycle(b []byte) { putWire(b) }

// PoolBytes reports the bytes the wire pool retains, at most MaxPoolBytes.
func PoolBytes() int { return wire.Bytes() }

// HeldPayloads reports how many payloads ReadFrame handed out that no
// Release has returned yet, process-wide. Once a connection's traffic has
// quiesced, its ends hold none: a count that stays above the baseline is a
// payload that was dropped unreleased, one below it a payload released twice.
func HeldPayloads() int64 { return held.Load() }

// Release hands the payload of f, a frame ReadFrame returned, back to the
// wire pool, and clears it. Its owner calls it exactly once, when nothing
// reads the payload or any slice of it any more; a Frame built by other
// means must not be released.
func (f *Frame) Release() {
	if f.Payload == nil {
		return
	}
	held.Add(-1)
	putWire(f.Payload)
	f.Payload = nil
}

// FrameWireSize is the number of bytes a frame with the given payload length
// occupies on the wire (header included) — the unit both ends' byte counters
// account in.
func FrameWireSize(payloadLen int) int { return headerLen + payloadLen }

// WriteFrame serializes a frame. Header and payload go out in a SINGLE Write
// call: shaped links (netsim) and latency models charge per write, so a
// two-write frame would pay the one-way link latency twice; a single write is
// also what keeps per-frame syscall overhead flat on real sockets. The frame
// is assembled in a pooled buffer that goes back once Write returns, so w
// must not retain p.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("protocol: payload %d exceeds limit %d", len(f.Payload), MaxPayload)
	}
	buf := getWire(headerLen + len(f.Payload))
	defer putWire(buf)
	copy(buf, magic)
	buf[4] = byte(f.Type)
	binary.LittleEndian.PutUint64(buf[5:], f.ID)
	binary.LittleEndian.PutUint32(buf[13:], uint32(len(f.Payload)))
	copy(buf[headerLen:], f.Payload)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("protocol: write frame: %w", err)
	}
	return nil
}

// ReadFrame deserializes one frame, validating magic and payload bounds. The
// payload is pooled, and the caller owns it until Frame.Release.
func ReadFrame(r io.Reader) (Frame, error) {
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, fmt.Errorf("protocol: read header: %w", err)
	}
	if string(hdr[:4]) != magic {
		return Frame{}, fmt.Errorf("protocol: bad magic %q", hdr[:4])
	}
	f := Frame{
		Type: MsgType(hdr[4]),
		ID:   binary.LittleEndian.Uint64(hdr[5:]),
	}
	n := binary.LittleEndian.Uint32(hdr[13:])
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("protocol: payload %d exceeds limit %d", n, MaxPayload)
	}
	if n > 0 {
		f.Payload = getWire(int(n))
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			putWire(f.Payload)
			return Frame{}, fmt.Errorf("protocol: read payload: %w", err)
		}
		held.Add(1)
	}
	return f, nil
}

// tensorWireSize is the encoded size of a tensor of the given shape: uint8
// rank, int32 dims, float32 data.
func tensorWireSize(shape []int) int {
	elems := 1
	for _, d := range shape {
		elems *= d
	}
	return 1 + 4*len(shape) + 4*elems
}

// AppendTensor appends t's encoding to dst; with enough spare capacity it
// allocates nothing (how EncodeInfer shares one buffer with its header).
func AppendTensor(dst []byte, t *tensor.Tensor) []byte {
	off := len(dst)
	shape := t.Shape()
	size := tensorWireSize(shape)
	dst = slices.Grow(dst, size)[:off+size]
	dst[off] = byte(len(shape))
	off++
	for _, d := range shape {
		binary.LittleEndian.PutUint32(dst[off:], uint32(d))
		off += 4
	}
	for _, v := range t.Data() {
		binary.LittleEndian.PutUint32(dst[off:], math.Float32bits(v))
		off += 4
	}
	return dst
}

// EncodeTensor serializes a tensor: uint8 rank, int32 dims, float32 data.
func EncodeTensor(t *tensor.Tensor) []byte {
	return AppendTensor(make([]byte, 0, tensorWireSize(t.Shape())), t)
}

// DecodeTensor reverses EncodeTensor, validating the payload exactly, into
// fresh storage (DecodeInferWith takes a request's from a caller's source
// instead). Either way the tensor never points into b, so b may be a
// sub-slice of a frame payload that is released once the call returns.
func DecodeTensor(b []byte) (*tensor.Tensor, error) {
	return decodeTensor(b, fresh)
}

// fresh is the storage of the allocating decoders.
func fresh(n int) []float32 { return make([]float32, n) }

// decodeTensor is DecodeTensor with the storage taken from storage(n), which
// returns n floats holding any values. A payload that fails validation takes
// none.
func decodeTensor(b []byte, storage func(n int) []float32) (*tensor.Tensor, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("protocol: empty tensor payload")
	}
	rank := int(b[0])
	if rank == 0 || rank > 8 {
		return nil, fmt.Errorf("protocol: implausible tensor rank %d", rank)
	}
	if len(b) < 1+4*rank {
		return nil, fmt.Errorf("protocol: truncated tensor header")
	}
	shape := make([]int, rank)
	off := 1
	elems := 1
	for i := range shape {
		d := int(binary.LittleEndian.Uint32(b[off:]))
		if d <= 0 || d > MaxPayload {
			return nil, fmt.Errorf("protocol: implausible dimension %d", d)
		}
		if elems > MaxPayload/d {
			return nil, fmt.Errorf("protocol: tensor too large")
		}
		shape[i] = d
		elems *= d
		off += 4
	}
	if len(b) != off+4*elems {
		return nil, fmt.Errorf("protocol: tensor payload length %d, want %d", len(b), off+4*elems)
	}
	data := storage(elems)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	return tensor.FromSlice(data, shape...), nil
}

// Rep says where in the network an inference request's tensor starts — the
// one thing that distinguishes the paper's collaboration modes on the wire.
type Rep uint8

// Representations.
const (
	// RepRaw is an input image: the server's raw model runs all of it.
	RepRaw Rep = iota
	// RepFeatures is a main-block feature tensor (§III-C "sending features"):
	// the server's partitioned-network tail finishes it.
	RepFeatures
	// RepActivation is the activation at a cut of the serving chain: the
	// request carries its own route, and each hop runs the span it is assigned.
	RepActivation
)

// String names the representation.
func (r Rep) String() string {
	switch r {
	case RepRaw:
		return "raw"
	case RepFeatures:
		return "features"
	case RepActivation:
		return "activation"
	default:
		return fmt.Sprintf("rep(%d)", uint8(r))
	}
}

// InferRequest is the decoded MsgInfer payload: ship a tensor, get labels
// back. Raw and feature tensors are one instance (CHW — a batching server
// fuses it with concurrent requests) or a client-assembled batch (NCHW — one
// forward pass, directly); which one is read off the rank.
//
// An activation request is SOURCE-ROUTED: Pos is the unit of the full serving
// chain (held by every hop) its tensor starts at and Bounds the ordered stage
// boundaries still ahead. Each hop runs units [Pos, Bounds[0]) — through the
// end of the chain when none remain — then forwards with the boundary
// consumed and TTL decremented. Because the route travels with the request,
// the edge moves a cut by stamping different boundaries on NEW requests while
// those in flight complete on the old ones (drain-never-abort, bitwise
// identical on both routes: core.Partition is exact for every legal cut
// chain). Activations are always batched (rank ≥ 2, dim 0 = instances): a cut
// may sit past the flattening layers. The other representations carry no
// route.
type InferRequest struct {
	Rep    Rep
	TTL    uint8
	Pos    int
	Bounds []int
	Tensor *tensor.Tensor
}

const (
	// inferHeaderLen is the fixed prefix of a MsgInfer payload: representation,
	// TTL, uint16 chain position, boundary count. uint16 boundaries follow,
	// then the tensor.
	inferHeaderLen = 5
	// maxChainUnits bounds the chain positions a request can carry.
	maxChainUnits = 1 << 16
)

// OneInstance reports whether the request carries a single CHW instance.
func (r *InferRequest) OneInstance() bool {
	return r.Rep != RepActivation && r.Tensor.Dims() == 3
}

// Batch is the request's tensor with a leading instance dimension: a single
// instance becomes a batch of one.
func (r *InferRequest) Batch() *tensor.Tensor {
	if r.OneInstance() {
		return r.Tensor.Reshape(append([]int{1}, r.Tensor.Shape()...)...)
	}
	return r.Tensor
}

// Instances is the number of results the request asks for.
func (r *InferRequest) Instances() int {
	if r.OneInstance() {
		return 1
	}
	return r.Tensor.Dim(0)
}

// Validate is the contract both codec directions enforce, so an accepted
// payload always re-encodes bitwise (and a transport with no wire checks it
// itself).
func (r *InferRequest) Validate() error {
	rank := r.Tensor.Dims()
	if r.Rep == RepActivation {
		if rank < 2 {
			return fmt.Errorf("protocol: expected a batched activation tensor (NCHW or [batch, features]), got rank %d", rank)
		}
		if r.Pos < 0 || r.Pos >= maxChainUnits {
			return fmt.Errorf("protocol: route position %d out of range", r.Pos)
		}
		if len(r.Bounds) > 255 {
			return fmt.Errorf("protocol: %d route boundaries, want <= 255", len(r.Bounds))
		}
		prev := r.Pos
		for _, b := range r.Bounds {
			if b <= prev || b >= maxChainUnits {
				return fmt.Errorf("protocol: route boundaries must be strictly increasing past position %d, got %v", r.Pos, r.Bounds)
			}
			prev = b
		}
		return nil
	}
	if r.Rep > RepActivation {
		return fmt.Errorf("protocol: unknown representation %d", uint8(r.Rep))
	}
	if r.TTL != 0 || r.Pos != 0 || len(r.Bounds) != 0 {
		return fmt.Errorf("protocol: a %s request carries no route", r.Rep)
	}
	if rank != 3 && rank != 4 {
		return fmt.Errorf("protocol: expected a CHW instance or an NCHW batch, got rank %d", rank)
	}
	return nil
}

// InferWireSize is the number of bytes a MsgInfer frame occupies on the wire,
// frame header included, when it carries a float32 tensor of the given shape
// behind that many route boundaries — what a cost model prices an upload or a
// relay at without encoding one.
func InferWireSize(boundaries int, shape ...int) int {
	return FrameWireSize(inferHeaderLen + 2*boundaries + tensorWireSize(shape))
}

// EncodeInfer serializes a MsgInfer payload — header, boundaries and tensor
// in ONE allocation.
func EncodeInfer(r InferRequest) ([]byte, error) {
	return AppendInfer(nil, r)
}

// AppendInfer appends r's MsgInfer payload to dst. It grows dst at most once,
// and allocates nothing when dst has room for the payload, as a NewBuffer of
// r's InferWireSize has (the frame's size, so the client's buffer and
// WriteFrame's come from the same lengths).
func AppendInfer(dst []byte, r InferRequest) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	off := len(dst)
	hdr := inferHeaderLen + 2*len(r.Bounds)
	out := slices.Grow(dst, hdr+tensorWireSize(r.Tensor.Shape()))[:off+hdr]
	out[off] = byte(r.Rep)
	out[off+1] = r.TTL
	binary.LittleEndian.PutUint16(out[off+2:], uint16(r.Pos))
	out[off+4] = byte(len(r.Bounds))
	for i, b := range r.Bounds {
		binary.LittleEndian.PutUint16(out[off+inferHeaderLen+2*i:], uint16(b))
	}
	return AppendTensor(out, r.Tensor), nil
}

// PeekInfer reads off the header what a server schedules a MsgInfer payload
// by, before decoding it. A malformed payload reads as (RepRaw, false);
// DecodeInfer says what is wrong with it.
func PeekInfer(b []byte) (rep Rep, one bool) {
	if len(b) <= inferHeaderLen {
		return RepRaw, false
	}
	rep = Rep(b[0])
	return rep, rep != RepActivation && b[4] == 0 && b[inferHeaderLen] == 3
}

// DecodeInfer reverses EncodeInfer, decoding the tensor straight out of the
// payload's tail into fresh storage.
func DecodeInfer(b []byte) (InferRequest, error) {
	return DecodeInferWith(b, fresh)
}

// DecodeInferWith is DecodeInfer with the tensor's storage taken from
// storage(n), which returns n floats holding any values. The storage is the
// caller's to hand back once nothing reads the tensor. A payload that fails
// validation before its tensor is decoded takes none; one that fails after
// drops what it took rather than hand it back.
func DecodeInferWith(b []byte, storage func(n int) []float32) (InferRequest, error) {
	if len(b) < inferHeaderLen {
		return InferRequest{}, fmt.Errorf("protocol: infer payload length %d, want >= %d", len(b), inferHeaderLen)
	}
	r := InferRequest{Rep: Rep(b[0]), TTL: b[1], Pos: int(binary.LittleEndian.Uint16(b[2:]))}
	n := int(b[4])
	off := inferHeaderLen + 2*n
	if len(b) < off {
		return InferRequest{}, fmt.Errorf("protocol: truncated infer header (%d boundaries)", n)
	}
	if n > 0 {
		r.Bounds = make([]int, n)
		for i := range r.Bounds {
			r.Bounds[i] = int(binary.LittleEndian.Uint16(b[inferHeaderLen+2*i:]))
		}
	}
	var err error
	if r.Tensor, err = decodeTensor(b[off:], storage); err != nil {
		return InferRequest{}, err
	}
	if err := r.Validate(); err != nil {
		return InferRequest{}, err
	}
	return r, nil
}

// Result is one classification outcome.
type Result struct {
	Pred int32
	Conf float32
}

// ResultOf is the post-processing every serving path shares: softmax one
// logits row and take the winning class with its confidence. One copy over
// bitwise-identical logits (internal/tensor's accumulation-order guarantee)
// makes batched, unbatched, chained and in-process predictions agree exactly.
func ResultOf(logits []float32) Result {
	probs := tensor.SoftmaxRow(logits)
	pred := 0
	for i, v := range probs {
		if v > probs[pred] {
			pred = i
		}
	}
	return Result{Pred: int32(pred), Conf: probs[pred]}
}

// LoadStatus is the cloud server's backpressure signal, piggybacked on every
// reply: a snapshot of the server's own atomic counters at response time,
// delivered to the edge with ZERO extra round trips. The edge's adaptive
// controller uses QueueDepth as a leading congestion indicator — queue growth
// shows up here one round trip before it shows up in measured latency. Note
// the scope: QueueDepth counts traffic in the micro-batch COLLECTORS
// (single-instance requests from many lightweight edges); client-assembled
// batches dispatch directly and appear only in Active, so a batch-only
// workload surfaces congestion through its measured turnaround instead.
type LoadStatus struct {
	// QueueDepth is the number of requests accepted by the server's
	// micro-batch collectors but not yet answered (0 when batching is off
	// or when all traffic arrives as pre-assembled batches).
	QueueDepth uint32
	// Active is the number of requests currently being SERVED across all
	// connections (including this one) — in-flight dispatches excluding
	// those parked in a collector queue, so QueueDepth > Active reads as
	// "arrivals are outrunning service".
	Active uint32
}

// loadStatusLen is the wire size of a LoadStatus.
const loadStatusLen = 8

func putLoadStatus(b []byte, st LoadStatus) {
	binary.LittleEndian.PutUint32(b, st.QueueDepth)
	binary.LittleEndian.PutUint32(b[4:], st.Active)
}

func getLoadStatus(b []byte) LoadStatus {
	return LoadStatus{QueueDepth: binary.LittleEndian.Uint32(b), Active: binary.LittleEndian.Uint32(b[4:])}
}

// StageStatus is one chain hop's live telemetry, piggybacked per hop on every
// relay reply: each hop PREPENDS its own entry to the vector its downstream
// returned, so the edge receives hop-ordered estimates — entry 0 is the first
// cloud hop — with zero extra round trips. The edge's live re-placement
// solver consumes them as the per-device compute rates and per-hop links the
// offline -plan flags used to guess.
type StageStatus struct {
	// ServiceNanos is the hop's queue-normalized EWMA of per-instance stage
	// service time (linkest.ServiceTime: wall time divided by the relay
	// dispatches in flight, so contention doesn't read as slowness). 0 until
	// the hop has served a relay.
	ServiceNanos uint64
	// DownMbps and DownRTTNanos are the hop's measured estimate of its OWN
	// downstream link (linkest over its relay round trips); zero on the
	// terminal hop and until samples mature.
	DownMbps     float32
	DownRTTNanos uint64
}

// stageStatusLen is the wire size of one StageStatus entry.
const stageStatusLen = 20

// InferReply is the decoded MsgResultBatch payload: uint32 count and count
// (int32 class, float32 confidence) results, the server's LoadStatus, one
// hop-count byte and that many StageStatus entries (none outside a chain).
type InferReply struct {
	Results []Result
	Load    LoadStatus
	Hops    []StageStatus
}

// EncodeReply serializes a MsgResultBatch payload in one allocation.
func EncodeReply(r InferReply) []byte {
	hops := r.Hops
	if len(hops) > 255 {
		hops = hops[:255] // longer chains than the TTL allows cannot occur
	}
	out := make([]byte, 4+8*len(r.Results)+loadStatusLen+1+stageStatusLen*len(hops))
	binary.LittleEndian.PutUint32(out, uint32(len(r.Results)))
	off := 4
	for _, res := range r.Results {
		binary.LittleEndian.PutUint32(out[off:], uint32(res.Pred))
		binary.LittleEndian.PutUint32(out[off+4:], math.Float32bits(res.Conf))
		off += 8
	}
	putLoadStatus(out[off:], r.Load)
	off += loadStatusLen
	out[off] = byte(len(hops))
	off++
	for _, h := range hops {
		binary.LittleEndian.PutUint64(out[off:], h.ServiceNanos)
		binary.LittleEndian.PutUint32(out[off+8:], math.Float32bits(h.DownMbps))
		binary.LittleEndian.PutUint64(out[off+12:], h.DownRTTNanos)
		off += stageStatusLen
	}
	return out
}

// DecodeReply reverses EncodeReply, validating the payload exactly.
func DecodeReply(b []byte) (InferReply, error) {
	const fixed = 4 + loadStatusLen + 1
	if len(b) < fixed {
		return InferReply{}, fmt.Errorf("protocol: reply payload length %d, want >= %d", len(b), fixed)
	}
	n := binary.LittleEndian.Uint32(b)
	if n > MaxPayload/8 {
		return InferReply{}, fmt.Errorf("protocol: implausible result count %d", n)
	}
	hopsAt := 4 + 8*int(n) + loadStatusLen
	if len(b) <= hopsAt {
		return InferReply{}, fmt.Errorf("protocol: reply payload length %d too short for %d results", len(b), n)
	}
	c := int(b[hopsAt])
	if want := hopsAt + 1 + stageStatusLen*c; len(b) != want {
		return InferReply{}, fmt.Errorf("protocol: reply payload length %d, want %d", len(b), want)
	}
	r := InferReply{Results: make([]Result, n), Load: getLoadStatus(b[hopsAt-loadStatusLen:])}
	off := 4
	for i := range r.Results {
		r.Results[i].Pred = int32(binary.LittleEndian.Uint32(b[off:]))
		r.Results[i].Conf = math.Float32frombits(binary.LittleEndian.Uint32(b[off+4:]))
		off += 8
	}
	if c > 0 {
		r.Hops = make([]StageStatus, c)
		off = hopsAt + 1
		for i := range r.Hops {
			r.Hops[i].ServiceNanos = binary.LittleEndian.Uint64(b[off:])
			r.Hops[i].DownMbps = math.Float32frombits(binary.LittleEndian.Uint32(b[off+8:]))
			r.Hops[i].DownRTTNanos = binary.LittleEndian.Uint64(b[off+12:])
			off += stageStatusLen
		}
	}
	return r, nil
}

// shedLen is the wire size of a MsgShed payload.
const shedLen = 8 + loadStatusLen

// DefaultRetryAfter is the retry-after hint of a shed that names none: what a
// server's admission control sends unless configured otherwise, what a hop
// propagates upstream for a downstream shed without a hint, and how long an
// edge holds its offloads when the frame it got carried none.
const DefaultRetryAfter = 50 * time.Millisecond

// EncodeShed serializes a MsgShed payload: the server's retry-after hint
// (int64 nanoseconds) and the congestion snapshot that caused it. MsgShed is
// the reply a server under admission control sends INSTEAD of parking or
// serving an inference request: the request was read and discarded, no
// inference ran, and the client should not re-offer load before the hint
// elapses.
func EncodeShed(retryAfter time.Duration, st LoadStatus) []byte {
	out := make([]byte, shedLen)
	binary.LittleEndian.PutUint64(out, uint64(retryAfter))
	putLoadStatus(out[8:], st)
	return out
}

// DecodeShed reverses EncodeShed. The retry-after bits are returned as-is
// (the encoding is canonical); callers clamp negative hints to zero rather
// than the decoder rejecting them.
func DecodeShed(b []byte) (retryAfter time.Duration, st LoadStatus, err error) {
	if len(b) != shedLen {
		return 0, LoadStatus{}, fmt.Errorf("protocol: shed payload length %d, want %d", len(b), shedLen)
	}
	return time.Duration(binary.LittleEndian.Uint64(b)), getLoadStatus(b[8:]), nil
}

// ErrShed is the sentinel matched by errors.Is when a request was answered
// with a shed frame: admission control refused the work. Algorithm 2's attempt
// loop stops on it instead of re-uploading into a saturated server.
var ErrShed = errors.New("protocol: cloud shed the request")

// ShedError is what a shed frame surfaces as on the sending side: the
// server's retry-after hint and the load snapshot that triggered the refusal.
// errors.Is(err, ErrShed) holds for any error wrapping one.
type ShedError struct {
	// RetryAfter is the server's back-off hint. Always ≥ 0 as surfaced by
	// the built-in transports (negative wire values are clamped).
	RetryAfter time.Duration
	// Load is the congestion snapshot a shed frame carries; HasLoad is false
	// on a shed a router synthesized for a whole replica set.
	Load    LoadStatus
	HasLoad bool
}

// Error renders the refusal with its hint.
func (e *ShedError) Error() string {
	return fmt.Sprintf("protocol: cloud shed the request (retry after %v, queue %d, active %d)",
		e.RetryAfter, e.Load.QueueDepth, e.Load.Active)
}

// Unwrap ties the typed error into the sentinel chain through any %w
// wrapping the transports add.
func (e *ShedError) Unwrap() error { return ErrShed }

// RetryAfter is how long a shed asks its sender to stay away: the hint the
// ShedError in err's chain carried, or DefaultRetryAfter when it carried none.
func RetryAfter(err error) time.Duration {
	var se *ShedError
	if errors.As(err, &se) && se.RetryAfter > 0 {
		return se.RetryAfter
	}
	return DefaultRetryAfter
}

// Capabilities is what a replica advertises in its MsgHello reply: the
// fixed facts an edge router needs before the first offload, instead of
// learning that a replica cannot serve a representation by burning a call on
// an error reply (and excluding a perfectly healthy replica for it).
type Capabilities struct {
	// TailCapable reports whether the server carries a partitioned-network
	// feature tail, i.e. whether RepFeatures requests can succeed here.
	TailCapable bool
	// ServesChain reports whether the server holds a serving chain, i.e.
	// whether RepActivation requests and chain probes can succeed here.
	ServesChain bool
	// MaxBatch is the server's micro-batch collector size (0 when batching is
	// off) — advisory: a hint for client-side batch sizing, not a limit the
	// server enforces on client-assembled batches.
	MaxBatch uint32
}

// Serves reports whether such a server can serve a request in rep (raw:
// always).
func (c Capabilities) Serves(rep Rep) bool {
	switch rep {
	case RepFeatures:
		return c.TailCapable
	case RepActivation:
		return c.ServesChain
	}
	return true
}

// helloLen is the wire size of a MsgHello reply payload.
const helloLen = 5

// Bits of the hello flags byte.
const (
	helloTailFlag  = 1 << 0
	helloChainFlag = 1 << 1
	helloKnown     = helloTailFlag | helloChainFlag
)

// EncodeHello serializes a MsgHello reply payload: one flags byte (bit 0 =
// tail-capable, bit 1 = serves a chain) followed by the uint32 micro-batch
// size. A MsgHello REQUEST carries an empty payload. A server that answers
// MsgError leaves its capabilities unknown, and the edge routes to it
// optimistically.
func EncodeHello(c Capabilities) []byte {
	out := make([]byte, helloLen)
	if c.TailCapable {
		out[0] |= helloTailFlag
	}
	if c.ServesChain {
		out[0] |= helloChainFlag
	}
	binary.LittleEndian.PutUint32(out[1:], c.MaxBatch)
	return out
}

// DecodeHello reverses EncodeHello, validating the payload exactly. Unknown
// flag bits are rejected rather than ignored: a frame with bits this decoder
// does not know is from a NEWER peer, and silently dropping its advertised
// capabilities would let the router make stale assumptions — the caller
// treats the error as capabilities unknown instead.
func DecodeHello(b []byte) (Capabilities, error) {
	if len(b) != helloLen {
		return Capabilities{}, fmt.Errorf("protocol: hello payload length %d, want %d", len(b), helloLen)
	}
	if b[0]&^helloKnown != 0 {
		return Capabilities{}, fmt.Errorf("protocol: unknown hello flags %#x", b[0])
	}
	return Capabilities{
		TailCapable: b[0]&helloTailFlag != 0,
		ServesChain: b[0]&helloChainFlag != 0,
		MaxBatch:    binary.LittleEndian.Uint32(b[1:]),
	}, nil
}

// EncodeRelayProbe serializes a MsgRelay payload: the TTL byte and nothing
// else. A probe traverses the chain's transport hops — every hop with a
// downstream forwards it without running a stage (TTL decremented per hop, so
// a chain misconfigured into a cycle dies with an error), the terminal hop
// answers a reply with no results — so the edge can verify a chain end to end
// and learn its hop count without shipping a single activation.
func EncodeRelayProbe(ttl uint8) []byte { return []byte{ttl} }

// DecodeRelayProbe decodes a probe payload's TTL byte.
func DecodeRelayProbe(b []byte) (ttl uint8, err error) {
	if len(b) != 1 {
		return 0, fmt.Errorf("protocol: relay probe payload length %d, want 1", len(b))
	}
	return b[0], nil
}
