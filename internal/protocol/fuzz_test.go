package protocol

// Native Go fuzz targets for the wire format. Two families:
//
//   - round-trip targets feed structured inputs through Write/Encode then
//     Read/Decode and require lossless reconstruction (all message types,
//     and MsgInfer payloads of every representation);
//   - decoder targets feed arbitrary bytes into the parsers and require
//     graceful errors, never panics or unbounded allocations.
//
// CI runs each target briefly (-fuzztime 20s) as a smoke job; longer local
// runs just work: go test -fuzz FuzzReadFrame ./internal/protocol

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/tensor"
)

// frameTypes lists every message type.
var frameTypes = []MsgType{
	MsgError, MsgPing, MsgPong, MsgResultBatch, MsgShed, MsgHello, MsgRelay, MsgInfer,
}

func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint64(7), []byte("payload"))
	f.Add(uint8(9), uint64(0), []byte{})
	f.Add(uint8(255), uint64(math.MaxUint64), []byte{0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, typ uint8, id uint64, payload []byte) {
		in := Frame{Type: MsgType(typ), ID: id, Payload: payload}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, in); err != nil {
			t.Fatalf("write rejected a bounded frame: %v", err)
		}
		out, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if out.Type != in.Type || out.ID != in.ID || !bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("round trip mutated frame: sent %+v, got %+v", in, out)
		}
		if buf.Len() != 0 {
			t.Fatalf("%d trailing bytes after one frame", buf.Len())
		}
	})
}

// FuzzFrameAllTypesRoundTrip drives one frame of every message type through
// the stream with a shared payload, checking order and integrity — the
// pipelined client depends on frames never bleeding into each other.
func FuzzFrameAllTypesRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint64(1))
	f.Add([]byte("tensor-ish payload"), uint64(42))
	f.Fuzz(func(t *testing.T, payload []byte, idBase uint64) {
		var buf bytes.Buffer
		for i, typ := range frameTypes {
			if err := WriteFrame(&buf, Frame{Type: typ, ID: idBase + uint64(i), Payload: payload}); err != nil {
				t.Fatal(err)
			}
		}
		for i, typ := range frameTypes {
			got, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("frame %d (%s): %v", i, typ, err)
			}
			if got.Type != typ || got.ID != idBase+uint64(i) || !bytes.Equal(got.Payload, payload) {
				t.Fatalf("frame %d mangled: %+v", i, got)
			}
		}
	})
}

// FuzzReadFrame feeds arbitrary bytes into the frame parser: it must return
// an error or a frame, never panic, and never allocate past MaxPayload.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte("MEA1"))
	f.Add([]byte{})
	// A valid frame as a seed so the fuzzer explores the accept path.
	var buf bytes.Buffer
	_ = WriteFrame(&buf, Frame{Type: MsgInfer, ID: 3, Payload: []byte{1, 2, 3}})
	f.Add(buf.Bytes())
	// An oversized length field.
	hdr := make([]byte, headerLen)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[13:], math.MaxUint32)
	f.Add(hdr)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(fr.Payload) > MaxPayload {
			t.Fatalf("accepted payload of %d bytes past the %d limit", len(fr.Payload), MaxPayload)
		}
		// Whatever parsed must survive a write/read cycle unchanged.
		var out bytes.Buffer
		if err := WriteFrame(&out, fr); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		back, err := ReadFrame(&out)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if back.Type != fr.Type || back.ID != fr.ID || !bytes.Equal(back.Payload, fr.Payload) {
			t.Fatalf("accepted frame unstable: %+v vs %+v", fr, back)
		}
	})
}

// FuzzDecodeTensor feeds arbitrary bytes into the tensor decoder; accepted
// tensors must re-encode to the exact input payload (the encoding is
// canonical), bit-for-bit even for NaN float patterns.
func FuzzDecodeTensor(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Add(EncodeTensor(tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 1, 2, 3)))
	f.Add(EncodeTensor(tensor.FromSlice([]float32{float32(math.NaN()), 0}, 2)))
	f.Fuzz(func(t *testing.T, data []byte) {
		tt, err := DecodeTensor(data)
		if err != nil {
			return
		}
		if got := EncodeTensor(tt); !bytes.Equal(got, data) {
			t.Fatalf("accepted tensor is not canonical: decode(%d bytes) re-encodes to %d different bytes",
				len(data), len(got))
		}
	})
}

// FuzzTensorRoundTrip builds small tensors from fuzzed dimensions and data
// and requires a lossless encode/decode cycle.
func FuzzTensorRoundTrip(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(4), int64(1))
	f.Add(uint8(1), uint8(1), uint8(1), int64(-7))
	f.Fuzz(func(t *testing.T, a, b, c uint8, seed int64) {
		shape := []int{int(a)%8 + 1, int(b)%8 + 1, int(c)%8 + 1}
		n := shape[0] * shape[1] * shape[2]
		data := make([]float32, n)
		s := uint64(seed)
		for i := range data {
			s = s*6364136223846793005 + 1442695040888963407
			data[i] = math.Float32frombits(uint32(s >> 32))
		}
		in := tensor.FromSlice(data, shape...)
		out, err := DecodeTensor(EncodeTensor(in))
		if err != nil {
			t.Fatalf("decode of valid encoding: %v", err)
		}
		if !out.SameShape(in) {
			t.Fatalf("shape %v became %v", in.Shape(), out.Shape())
		}
		for i, v := range out.Data() {
			if math.Float32bits(v) != math.Float32bits(in.Data()[i]) {
				t.Fatalf("element %d: %x became %x", i, math.Float32bits(in.Data()[i]), math.Float32bits(v))
			}
		}
	})
}

// FuzzDecodeResults feeds arbitrary bytes into the reply decoder, seeded at
// the results section's extremes; accepted batches must re-encode
// canonically.
func FuzzDecodeResults(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeReply(InferReply{}))
	f.Add(EncodeReply(InferReply{Results: []Result{{Pred: 3, Conf: 0.5}, {Pred: -1, Conf: float32(math.Inf(1))}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReply(data)
		if err != nil {
			return
		}
		if got := EncodeReply(r); !bytes.Equal(got, data) {
			t.Fatalf("accepted result batch is not canonical (%d vs %d bytes)", len(got), len(data))
		}
	})
}

// FuzzDecodeShed feeds arbitrary bytes into the shed-frame decoder (the
// admission-control reply): the one accepted layout is retry-after +
// LoadStatus, and accepted payloads must re-encode canonically.
func FuzzDecodeShed(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeShed(50*time.Millisecond, LoadStatus{QueueDepth: 3, Active: 1}))
	f.Add(EncodeShed(0, LoadStatus{}))
	f.Add(EncodeShed(-time.Second, LoadStatus{QueueDepth: math.MaxUint32}))
	f.Add(make([]byte, 8)) // the retired status-less layout: rejected
	f.Add(make([]byte, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		retryAfter, st, err := DecodeShed(data)
		if err != nil {
			return
		}
		if back := EncodeShed(retryAfter, st); !bytes.Equal(back, data) {
			t.Fatalf("accepted shed payload is not canonical (%d vs %d bytes)", len(back), len(data))
		}
	})
}

// FuzzDecodeRelayProbe feeds arbitrary bytes into the chain-probe decoder: the
// only accepted payload is the single TTL byte, which must re-encode
// bitwise — a legacy static-relay activation on the same wire value (TTL +
// tensor) must never be mistaken for a probe.
func FuzzDecodeRelayProbe(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3})
	f.Add(append([]byte{3}, EncodeTensor(tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		ttl, err := DecodeRelayProbe(data)
		if err != nil {
			return
		}
		if got := EncodeRelayProbe(ttl); !bytes.Equal(got, data) {
			t.Fatalf("accepted probe payload is not canonical (%d vs %d bytes)", len(got), len(data))
		}
	})
}

// FuzzDecodeInfer feeds arbitrary bytes into the inference-request decoder:
// accepted payloads must re-encode canonically. The header is validated
// strictly — a known representation, route fields zero unless it is
// activation, boundaries strictly increasing past the position, a tensor
// whose rank fits the representation — so no two byte strings decode to the
// same request.
func FuzzDecodeInfer(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2})
	f.Add([]byte{2, 3, 0, 0, 0})
	seed, _ := EncodeInfer(InferRequest{Rep: RepActivation, TTL: 7, Pos: 2, Bounds: []int{4, 9}, Tensor: tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)})
	f.Add(seed)
	one, _ := EncodeInfer(InferRequest{Rep: RepFeatures, Tensor: tensor.FromSlice([]float32{float32(math.NaN())}, 1, 1, 1)})
	f.Add(one)
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeInfer(data)
		if err != nil {
			return
		}
		if req.Rep > RepActivation {
			t.Fatalf("accepted unknown representation %d", req.Rep)
		}
		if req.Rep != RepActivation && (req.TTL != 0 || req.Pos != 0 || len(req.Bounds) != 0) {
			t.Fatalf("accepted a route on a %s request: %+v", req.Rep, req)
		}
		prev := req.Pos
		for _, b := range req.Bounds {
			if b <= prev {
				t.Fatalf("accepted boundaries %v not strictly increasing past %d", req.Bounds, req.Pos)
			}
			prev = b
		}
		if rep, one := PeekInfer(data); rep != req.Rep || one != req.OneInstance() {
			t.Fatalf("PeekInfer says (%s, %v), decoded request is (%s, %v)", rep, one, req.Rep, req.OneInstance())
		}
		got, err := EncodeInfer(req)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("accepted infer payload is not canonical (%d vs %d bytes)", len(got), len(data))
		}
	})
}

// FuzzInferRoundTrip builds requests of every representation — routes and
// NCHW batches from fuzzed inputs — and requires a bitwise-lossless cycle:
// the property the live cut move's bitwise-identity guarantee rests on.
func FuzzInferRoundTrip(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(1), uint8(2), int64(1))
	f.Add(uint8(16), uint8(1), uint8(0), uint8(5), int64(-7))
	f.Fuzz(func(t *testing.T, ttl, n, posRaw, hopsRaw uint8, seed int64) {
		shape := []int{int(n)%4 + 1, 2, 3, 3}
		data := make([]float32, shape[0]*shape[1]*shape[2]*shape[3])
		s := uint64(seed)
		for i := range data {
			s = s*6364136223846793005 + 1442695040888963407
			data[i] = math.Float32frombits(uint32(s >> 32))
		}
		in := InferRequest{Rep: Rep(seed & 1), Tensor: tensor.FromSlice(data, shape...)}
		if hopsRaw%2 == 1 {
			in.Rep, in.TTL, in.Pos = RepActivation, ttl, int(posRaw)%64
			in.Bounds = make([]int, int(hopsRaw)%5)
			for i := range in.Bounds {
				in.Bounds[i] = in.Pos + (i+1)*3 // strictly increasing past pos
			}
		}
		enc, err := EncodeInfer(in)
		if err != nil {
			t.Fatalf("encode of valid request: %v", err)
		}
		got, err := DecodeInfer(enc)
		if err != nil {
			t.Fatalf("decode of valid infer payload: %v", err)
		}
		if got.Rep != in.Rep || got.TTL != in.TTL || got.Pos != in.Pos || len(got.Bounds) != len(in.Bounds) {
			t.Fatalf("header mutated: %+v → %+v", in, got)
		}
		for i := range in.Bounds {
			if got.Bounds[i] != in.Bounds[i] {
				t.Fatalf("boundary %d: %d became %d", i, in.Bounds[i], got.Bounds[i])
			}
		}
		if !got.Tensor.SameShape(in.Tensor) {
			t.Fatalf("shape %v became %v", in.Tensor.Shape(), got.Tensor.Shape())
		}
		for i, v := range got.Tensor.Data() {
			if math.Float32bits(v) != math.Float32bits(data[i]) {
				t.Fatalf("element %d: %x became %x", i, math.Float32bits(data[i]), math.Float32bits(v))
			}
		}
	})
}

// FuzzDecodeReply feeds arbitrary bytes into the reply decoder (the frame the
// backpressure signal and the live re-placement solver's telemetry ride on):
// there is one layout, and accepted payloads must re-encode canonically.
func FuzzDecodeReply(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeReply(InferReply{}))
	f.Add(EncodeReply(InferReply{Load: LoadStatus{QueueDepth: 1, Active: 2}}))
	f.Add(EncodeReply(InferReply{Hops: []StageStatus{{}}}))
	f.Add(EncodeReply(InferReply{Results: []Result{{Pred: 3, Conf: 0.5}}, Load: LoadStatus{QueueDepth: 9},
		Hops: []StageStatus{{ServiceNanos: 1e6, DownMbps: 93.5, DownRTTNanos: 2e6}, {ServiceNanos: 4e5}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReply(data)
		if err != nil {
			return
		}
		if back := EncodeReply(r); !bytes.Equal(back, data) {
			t.Fatalf("accepted payload is not canonical (%d vs %d bytes)", len(back), len(data))
		}
	})
}

// FuzzDecodeHello feeds arbitrary bytes into the capability-handshake
// decoder: accepted payloads must re-encode canonically (the layout has one
// flags byte, so unknown bits are rejected rather than silently dropped —
// re-encoding would otherwise lose them and break canonicity).
func FuzzDecodeHello(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeHello(Capabilities{}))
	f.Add(EncodeHello(Capabilities{TailCapable: true, MaxBatch: 8}))
	f.Add(EncodeHello(Capabilities{ServesChain: true, MaxBatch: math.MaxUint32}))
	f.Add([]byte{0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		caps, err := DecodeHello(data)
		if err != nil {
			return
		}
		if got := EncodeHello(caps); !bytes.Equal(got, data) {
			t.Fatalf("accepted hello payload is not canonical (% x vs % x)", got, data)
		}
	})
}
