// Package protocol defines the binary wire format between the edge runtime
// and the cloud AI server: length-prefixed frames carrying either a raw
// image, a feature tensor, a classification result, an error, or a shed
// notice (the admission-control refusal, see EncodeShed). The paper's
// two edge-cloud collaboration modes (§III-C: sending raw data or processed
// features) map onto the two classify message types.
package protocol

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/meanet/meanet/internal/tensor"
)

// MsgType discriminates frame payloads.
type MsgType uint8

// Message types.
const (
	MsgClassifyRaw       MsgType = iota + 1 // payload: image tensor [C,H,W]
	MsgClassifyFeat                         // payload: feature tensor [C,H,W]
	MsgResult                               // payload: int32 class + float32 confidence
	MsgError                                // payload: UTF-8 error text
	MsgPing                                 // empty payload
	MsgPong                                 // empty payload
	MsgClassifyBatch                        // payload: batched image tensor [N,C,H,W]
	MsgResultBatch                          // payload: uint32 count + count results
	MsgClassifyFeatBatch                    // payload: batched feature tensor [N,C,H,W]
	MsgShed                                 // payload: uint64 retry-after nanos (+ optional LoadStatus)
	MsgHello                                // request: empty; reply payload: Capabilities
	MsgRelay                                // payload: relay TTL byte (zero-instance chain probe)
	MsgRelayRoute                           // payload: TTL + chain position + remaining boundaries + activation tensor
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgClassifyRaw:
		return "classify-raw"
	case MsgClassifyFeat:
		return "classify-features"
	case MsgResult:
		return "result"
	case MsgError:
		return "error"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgClassifyBatch:
		return "classify-batch"
	case MsgResultBatch:
		return "result-batch"
	case MsgClassifyFeatBatch:
		return "classify-features-batch"
	case MsgShed:
		return "shed"
	case MsgHello:
		return "hello"
	case MsgRelay:
		return "relay"
	case MsgRelayRoute:
		return "relay-routed"
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

// Frame is one protocol message.
type Frame struct {
	Type    MsgType
	ID      uint64
	Payload []byte
}

// FrameWireSize is the number of bytes a frame with the given payload length
// occupies on the wire (header included) — the unit both ends' byte counters
// account in.
func FrameWireSize(payloadLen int) int { return headerLen + payloadLen }

// WriteFrame serializes a frame. Header and payload go out in a SINGLE Write
// call: shaped links (netsim) and latency models charge per write, so a
// two-write frame would pay the one-way link latency twice; a single write is
// also what keeps per-frame syscall overhead flat on real sockets.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("protocol: payload %d exceeds limit %d", len(f.Payload), MaxPayload)
	}
	buf := make([]byte, headerLen+len(f.Payload))
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

// ReadFrame deserializes one frame, validating magic and payload bounds.
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
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("protocol: read payload: %w", err)
		}
	}
	return f, nil
}

// EncodeTensor serializes a tensor: uint8 rank, int32 dims, float32 data.
func EncodeTensor(t *tensor.Tensor) []byte {
	shape := t.Shape()
	out := make([]byte, 1+4*len(shape)+4*t.Numel())
	out[0] = byte(len(shape))
	off := 1
	for _, d := range shape {
		binary.LittleEndian.PutUint32(out[off:], uint32(d))
		off += 4
	}
	for _, v := range t.Data() {
		binary.LittleEndian.PutUint32(out[off:], math.Float32bits(v))
		off += 4
	}
	return out
}

// DecodeTensor reverses EncodeTensor, validating the payload exactly.
func DecodeTensor(b []byte) (*tensor.Tensor, error) {
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
	data := make([]float32, elems)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	return tensor.FromSlice(data, shape...), nil
}

// EncodeResult serializes a classification result.
func EncodeResult(pred int32, conf float32) []byte {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint32(out, uint32(pred))
	binary.LittleEndian.PutUint32(out[4:], math.Float32bits(conf))
	return out
}

// DecodeResult reverses EncodeResult.
func DecodeResult(b []byte) (pred int32, conf float32, err error) {
	if len(b) != 8 {
		return 0, 0, fmt.Errorf("protocol: result payload length %d, want 8", len(b))
	}
	pred = int32(binary.LittleEndian.Uint32(b))
	conf = math.Float32frombits(binary.LittleEndian.Uint32(b[4:]))
	return pred, conf, nil
}

// Result is one classification outcome inside a MsgResultBatch payload.
type Result struct {
	Pred int32
	Conf float32
}

// EncodeResults serializes a batch of classification results:
// uint32 count followed by count (int32 class, float32 confidence) pairs.
func EncodeResults(rs []Result) []byte {
	out := make([]byte, 4+8*len(rs))
	binary.LittleEndian.PutUint32(out, uint32(len(rs)))
	off := 4
	for _, r := range rs {
		binary.LittleEndian.PutUint32(out[off:], uint32(r.Pred))
		binary.LittleEndian.PutUint32(out[off+4:], math.Float32bits(r.Conf))
		off += 8
	}
	return out
}

// DecodeResults reverses EncodeResults, validating the payload exactly.
func DecodeResults(b []byte) ([]Result, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("protocol: result batch payload length %d, want >= 4", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if n > MaxPayload/8 {
		return nil, fmt.Errorf("protocol: implausible result batch count %d", n)
	}
	if len(b) != 4+8*int(n) {
		return nil, fmt.Errorf("protocol: result batch payload length %d, want %d", len(b), 4+8*int(n))
	}
	rs := make([]Result, n)
	off := 4
	for i := range rs {
		rs[i].Pred = int32(binary.LittleEndian.Uint32(b[off:]))
		rs[i].Conf = math.Float32frombits(binary.LittleEndian.Uint32(b[off+4:]))
		off += 8
	}
	return rs, nil
}

// LoadStatus is the cloud server's backpressure signal, piggybacked on
// result frames: a snapshot of the server's own atomic counters at response
// time, delivered to the edge with ZERO extra round trips. The edge's
// adaptive controller uses QueueDepth as a leading congestion indicator —
// queue growth shows up here one round trip before it shows up in measured
// latency. Note the scope: QueueDepth counts traffic in the micro-batch
// COLLECTORS (single-instance classify frames from many lightweight edges);
// client-assembled batch frames dispatch directly and appear only in
// Active, so a batch-frame-only workload surfaces congestion through its
// measured turnaround instead.
type LoadStatus struct {
	// QueueDepth is the number of requests accepted by the server's
	// micro-batch collectors but not yet answered (0 when batching is off
	// or when all traffic arrives as pre-assembled batch frames).
	QueueDepth uint32
	// Active is the number of requests currently being SERVED across all
	// connections (including this one) — in-flight dispatches excluding
	// those parked in a collector queue, so QueueDepth > Active reads as
	// "arrivals are outrunning service".
	Active uint32
}

// loadStatusLen is the wire size of the trailing status field.
const loadStatusLen = 8

// appendLoadStatus extends a result payload with the trailing status field.
func appendLoadStatus(b []byte, st LoadStatus) []byte {
	out := make([]byte, len(b)+loadStatusLen)
	copy(out, b)
	binary.LittleEndian.PutUint32(out[len(b):], st.QueueDepth)
	binary.LittleEndian.PutUint32(out[len(b)+4:], st.Active)
	return out
}

// EncodeResultLoad is EncodeResult with the trailing LoadStatus field.
func EncodeResultLoad(pred int32, conf float32, st LoadStatus) []byte {
	return appendLoadStatus(EncodeResult(pred, conf), st)
}

// EncodeResultsLoad is EncodeResults with the trailing LoadStatus field.
func EncodeResultsLoad(rs []Result, st LoadStatus) []byte {
	return appendLoadStatus(EncodeResults(rs), st)
}

// shedBaseLen is the wire size of a shed payload's retry-after field.
const shedBaseLen = 8

// EncodeShed serializes a MsgShed payload: the server's retry-after hint
// (int64 nanoseconds) followed by the same trailing LoadStatus field result
// frames carry, so a shed reply delivers the congestion snapshot that caused
// it. MsgShed is the reply a server under admission control sends INSTEAD of
// parking or serving a classify request: the request was read and discarded,
// no inference ran, and the client should not re-offer load before the hint
// elapses. Servers that never shed never emit the frame, so an old server
// interoperates with a new edge unchanged; an OLD edge receiving MsgShed
// treats it as an unexpected response type and falls back to the edge
// decision — safe, just without the retry-after courtesy.
func EncodeShed(retryAfter time.Duration, st LoadStatus) []byte {
	base := make([]byte, shedBaseLen)
	binary.LittleEndian.PutUint64(base, uint64(retryAfter))
	return appendLoadStatus(base, st)
}

// DecodeShed decodes a MsgShed payload with or without the trailing
// LoadStatus field, mirroring the legacy-compatibility contract of
// DecodeResultLoad: the 8-byte base payload decodes with hasLoad == false,
// the 16-byte extended payload carries the load snapshot. The retry-after
// bits are returned as-is (the encoding is canonical); callers clamp
// negative hints to zero rather than the decoder rejecting them.
func DecodeShed(b []byte) (retryAfter time.Duration, st LoadStatus, hasLoad bool, err error) {
	switch len(b) {
	case shedBaseLen:
	case shedBaseLen + loadStatusLen:
		st.QueueDepth = binary.LittleEndian.Uint32(b[shedBaseLen:])
		st.Active = binary.LittleEndian.Uint32(b[shedBaseLen+4:])
		hasLoad = true
	default:
		return 0, LoadStatus{}, false, fmt.Errorf("protocol: shed payload length %d, want %d or %d",
			len(b), shedBaseLen, shedBaseLen+loadStatusLen)
	}
	return time.Duration(binary.LittleEndian.Uint64(b)), st, hasLoad, nil
}

// Capabilities is what a replica advertises in its MsgHello reply: the
// fixed facts about this server an edge router needs before the first
// offload. The handshake replaces discovery-by-failure — without it, an edge
// only learns a replica has no feature tail by burning a features call on an
// error reply (and excluding a perfectly healthy replica for it).
type Capabilities struct {
	// TailCapable reports whether the server carries a partitioned-network
	// feature tail, i.e. whether classify-features(-batch) frames can succeed
	// here. A capability-aware router never samples a tail-less replica for a
	// features-mode call.
	TailCapable bool
	// MaxBatch is the server's micro-batch collector size (0 when batching is
	// off) — advisory: a hint for client-side batch sizing, not a limit the
	// server enforces on client-assembled batch frames.
	MaxBatch uint32
}

// helloLen is the wire size of a MsgHello reply payload.
const helloLen = 5

// helloTailFlag is the TailCapable bit in the hello flags byte.
const helloTailFlag = 1 << 0

// EncodeHello serializes a MsgHello reply payload: one flags byte (bit 0 =
// tail-capable) followed by the uint32 micro-batch size. A MsgHello REQUEST
// carries an empty payload — the client has nothing to advertise yet; the
// frame exists so a replica can announce itself to the router at connect
// instead of being pre-configured. An old server answers the unknown type
// with MsgError, which a new edge treats as "capabilities unknown" (route
// optimistically, as before the handshake existed); an old edge simply never
// sends MsgHello, so the frame is invisible to it.
func EncodeHello(c Capabilities) []byte {
	out := make([]byte, helloLen)
	if c.TailCapable {
		out[0] |= helloTailFlag
	}
	binary.LittleEndian.PutUint32(out[1:], c.MaxBatch)
	return out
}

// DecodeHello reverses EncodeHello, validating the payload exactly. Unknown
// flag bits are rejected rather than ignored: a frame with bits this decoder
// does not know is from a NEWER peer, and silently dropping its advertised
// capabilities would let the router make stale assumptions — the caller
// treats the error like a legacy server (capabilities unknown) instead.
func DecodeHello(b []byte) (Capabilities, error) {
	if len(b) != helloLen {
		return Capabilities{}, fmt.Errorf("protocol: hello payload length %d, want %d", len(b), helloLen)
	}
	if b[0]&^helloTailFlag != 0 {
		return Capabilities{}, fmt.Errorf("protocol: unknown hello flags %#x", b[0])
	}
	return Capabilities{
		TailCapable: b[0]&helloTailFlag != 0,
		MaxBatch:    binary.LittleEndian.Uint32(b[1:]),
	}, nil
}

// relayProbeLen is the whole MsgRelay payload: the TTL byte.
const relayProbeLen = 1

// EncodeRelayProbe serializes a MsgRelay payload: the TTL byte and nothing
// else. A probe traverses the chain's transport hops — every hop with a
// downstream forwards it without running a stage (TTL decremented per hop, so
// a chain misconfigured into a cycle dies with an error instead of
// circulating frames forever), the terminal hop answers an empty result batch
// — so the edge can verify a chain end to end, and learn its hop count from
// the piggybacked per-hop status vector, without shipping a single
// activation. Wire value 12 once also carried static-chain activations (TTL +
// tensor); that frame is gone — activations travel source-routed in
// MsgRelayRoute — and a stage server answers a legacy peer still sending it
// with a MsgError that says so. A server predating stage mode answers the
// unknown type with MsgError, the MsgHello legacy contract.
func EncodeRelayProbe(ttl uint8) []byte { return []byte{ttl} }

// IsRelayProbe reports whether a MsgRelay payload is a chain probe (TTL byte
// only) rather than a legacy static-relay activation.
func IsRelayProbe(b []byte) bool { return len(b) == relayProbeLen }

// DecodeRelayProbe decodes a probe payload's TTL byte.
func DecodeRelayProbe(b []byte) (ttl uint8, err error) {
	if !IsRelayProbe(b) {
		return 0, fmt.Errorf("protocol: relay probe payload length %d, want %d", len(b), relayProbeLen)
	}
	return b[0], nil
}

// routedHeaderLen is the fixed prefix of a MsgRelayRoute payload: the TTL
// byte, the uint16 chain position and the boundary-count byte.
const routedHeaderLen = 4

// maxChainUnits bounds the chain positions a routed relay frame can carry
// (uint16 on the wire; real serving chains are tens of units).
const maxChainUnits = 1 << 16

// EncodeRoutedActivation serializes a MsgRelayRoute payload — the
// SOURCE-ROUTED relay frame: the edge stamps each frame with the chain
// position its activations start at (pos, a unit index into the full serving
// chain every hop holds) and the ordered list of remaining stage boundaries.
// Each hop runs units [pos, bounds[0]) — or [pos, end-of-chain) when no
// boundaries remain, making it the terminal hop for THIS frame — then
// forwards with pos = bounds[0] and the boundary consumed. Because the route
// travels with the frame instead of living in server config, the edge can
// move a cut by stamping different boundaries on NEW frames while frames
// already in flight complete on the old ones: the drain-never-abort cut move,
// with bitwise-identical predictions on both routes (core.Partition is exact
// for every legal cut chain).
func EncodeRoutedActivation(ttl uint8, pos int, bounds []int, t *tensor.Tensor) ([]byte, error) {
	if pos < 0 || pos >= maxChainUnits {
		return nil, fmt.Errorf("protocol: routed relay position %d out of range", pos)
	}
	if len(bounds) > 255 {
		return nil, fmt.Errorf("protocol: %d route boundaries, want <= 255", len(bounds))
	}
	prev := pos
	for _, b := range bounds {
		if b <= prev || b >= maxChainUnits {
			return nil, fmt.Errorf("protocol: route boundaries must be strictly increasing past position %d, got %v", pos, bounds)
		}
		prev = b
	}
	body := EncodeTensor(t)
	out := make([]byte, routedHeaderLen+2*len(bounds)+len(body))
	out[0] = ttl
	binary.LittleEndian.PutUint16(out[1:], uint16(pos))
	out[3] = byte(len(bounds))
	off := routedHeaderLen
	for _, b := range bounds {
		binary.LittleEndian.PutUint16(out[off:], uint16(b))
		off += 2
	}
	copy(out[off:], body)
	return out, nil
}

// DecodeRoutedActivation reverses EncodeRoutedActivation, validating the
// route exactly (monotonic boundaries, canonical tensor) so an accepted
// payload always re-encodes bitwise — the same canonicity contract as
// DecodeTensor, fuzz-enforced.
func DecodeRoutedActivation(b []byte) (ttl uint8, pos int, bounds []int, t *tensor.Tensor, err error) {
	if len(b) < routedHeaderLen {
		return 0, 0, nil, nil, fmt.Errorf("protocol: routed relay payload length %d, want >= %d", len(b), routedHeaderLen)
	}
	ttl = b[0]
	pos = int(binary.LittleEndian.Uint16(b[1:]))
	n := int(b[3])
	if len(b) < routedHeaderLen+2*n {
		return 0, 0, nil, nil, fmt.Errorf("protocol: truncated routed relay header (%d boundaries)", n)
	}
	off := routedHeaderLen
	prev := pos
	if n > 0 {
		bounds = make([]int, n)
		for i := range bounds {
			v := int(binary.LittleEndian.Uint16(b[off:]))
			if v <= prev {
				return 0, 0, nil, nil, fmt.Errorf("protocol: route boundary %d not past %d", v, prev)
			}
			bounds[i] = v
			prev = v
			off += 2
		}
	}
	t, err = DecodeTensor(b[off:])
	if err != nil {
		return 0, 0, nil, nil, err
	}
	return ttl, pos, bounds, t, nil
}

// StageStatus is one chain hop's live telemetry, piggybacked per hop on every
// relay reply: each hop APPENDS its own entry to the vector its downstream
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

// EncodeResultsChain is EncodeResultsLoad with a trailing per-hop status
// vector: results, the 8-byte LoadStatus, then one count byte and count
// 20-byte StageStatus entries. The count byte makes the extension
// unambiguous against both legacy layouts — base and base+load payloads are
// multiples of 4 bytes, the chain section is 1+20c ≡ 1 (mod 4) — so
// DecodeResultsChain needs no version flag, mirroring how the LoadStatus
// piggyback itself stays legacy-compatible.
func EncodeResultsChain(rs []Result, st LoadStatus, hops []StageStatus) []byte {
	if len(hops) > 255 {
		hops = hops[:255] // longer chains than the TTL allows cannot occur
	}
	base := appendLoadStatus(EncodeResults(rs), st)
	out := make([]byte, len(base)+1+stageStatusLen*len(hops))
	copy(out, base)
	out[len(base)] = byte(len(hops))
	off := len(base) + 1
	for _, h := range hops {
		binary.LittleEndian.PutUint64(out[off:], h.ServiceNanos)
		binary.LittleEndian.PutUint32(out[off+8:], math.Float32bits(h.DownMbps))
		binary.LittleEndian.PutUint64(out[off+12:], h.DownRTTNanos)
		off += stageStatusLen
	}
	return out
}

// DecodeResultsChain decodes a MsgResultBatch payload in any of its three
// layouts: bare results (legacy), results+LoadStatus, or
// results+LoadStatus+per-hop chain status. hasChain reports whether the
// frame carried the status vector (hops may be empty either way — a probe
// reply from a zero-hop... chain never occurs, but the decoder does not
// assume it).
func DecodeResultsChain(b []byte) (rs []Result, st LoadStatus, hasLoad bool, hops []StageStatus, hasChain bool, err error) {
	if len(b) >= 4+loadStatusLen+1 {
		n := binary.LittleEndian.Uint32(b)
		if n <= uint32(MaxPayload/8) {
			base := 4 + 8*int(n) + loadStatusLen
			if len(b) > base {
				c := int(b[base])
				if len(b) == base+1+stageStatusLen*c {
					hops = make([]StageStatus, c)
					off := base + 1
					for i := range hops {
						hops[i].ServiceNanos = binary.LittleEndian.Uint64(b[off:])
						hops[i].DownMbps = math.Float32frombits(binary.LittleEndian.Uint32(b[off+8:]))
						hops[i].DownRTTNanos = binary.LittleEndian.Uint64(b[off+12:])
						off += stageStatusLen
					}
					hasChain = true
					b = b[:base]
				}
			}
		}
	}
	rs, st, hasLoad, err = DecodeResultsLoad(b)
	if err != nil {
		return nil, LoadStatus{}, false, nil, false, err
	}
	return rs, st, hasLoad, hops, hasChain, nil
}

// DecodeResultLoad decodes a MsgResult payload with or without the trailing
// LoadStatus field. hasLoad reports whether the frame carried one (legacy
// 8-byte payloads decode with hasLoad == false), so a NEW edge interoperates
// with an OLD server. The reverse is not true: servers always append the
// status field, and the strict legacy decoders reject extended payloads —
// upgrade edges before (or with) their servers.
func DecodeResultLoad(b []byte) (pred int32, conf float32, st LoadStatus, hasLoad bool, err error) {
	if len(b) == 8+loadStatusLen {
		st.QueueDepth = binary.LittleEndian.Uint32(b[8:])
		st.Active = binary.LittleEndian.Uint32(b[12:])
		hasLoad = true
		b = b[:8]
	}
	pred, conf, err = DecodeResult(b)
	if err != nil {
		return 0, 0, LoadStatus{}, false, err
	}
	return pred, conf, st, hasLoad, nil
}

// DecodeResultsLoad decodes a MsgResultBatch payload with or without the
// trailing LoadStatus field (see DecodeResultLoad). The base layout is
// self-describing — uint32 count then count results — so the 8 trailing
// status bytes are unambiguous: a payload is either exactly the base length
// or exactly base+8.
func DecodeResultsLoad(b []byte) (rs []Result, st LoadStatus, hasLoad bool, err error) {
	if len(b) >= 4+loadStatusLen {
		n := binary.LittleEndian.Uint32(b)
		if n <= uint32(MaxPayload/8) && len(b) == 4+8*int(n)+loadStatusLen {
			st.QueueDepth = binary.LittleEndian.Uint32(b[len(b)-8:])
			st.Active = binary.LittleEndian.Uint32(b[len(b)-4:])
			hasLoad = true
			b = b[:len(b)-loadStatusLen]
		}
	}
	rs, err = DecodeResults(b)
	if err != nil {
		return nil, LoadStatus{}, false, err
	}
	return rs, st, hasLoad, nil
}
