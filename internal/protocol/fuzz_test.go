package protocol

// Native Go fuzz targets for the wire format. Two families:
//
//   - round-trip targets feed structured inputs through Write/Encode then
//     Read/Decode and require lossless reconstruction (all message types,
//     including the two batch frames — any NCHW tensor payload is covered by
//     the tensor round-trip since batch frames differ only in MsgType);
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

// frameTypes lists every message type, including the batch frames.
var frameTypes = []MsgType{
	MsgClassifyRaw, MsgClassifyFeat, MsgResult, MsgError, MsgPing, MsgPong,
	MsgClassifyBatch, MsgResultBatch, MsgClassifyFeatBatch, MsgShed, MsgHello,
	MsgRelay,
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
	_ = WriteFrame(&buf, Frame{Type: MsgClassifyBatch, ID: 3, Payload: []byte{1, 2, 3}})
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

// FuzzDecodeResults feeds arbitrary bytes into the result-batch decoder;
// accepted batches must re-encode canonically.
func FuzzDecodeResults(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeResults(nil))
	f.Add(EncodeResults([]Result{{Pred: 3, Conf: 0.5}, {Pred: -1, Conf: float32(math.Inf(1))}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := DecodeResults(data)
		if err != nil {
			return
		}
		if got := EncodeResults(rs); !bytes.Equal(got, data) {
			t.Fatalf("accepted result batch is not canonical (%d vs %d bytes)", len(got), len(data))
		}
	})
}

// FuzzDecodeResult covers the single-result payload.
func FuzzDecodeResult(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeResult(7, 0.25))
	f.Fuzz(func(t *testing.T, data []byte) {
		pred, conf, err := DecodeResult(data)
		if err != nil {
			return
		}
		if got := EncodeResult(pred, conf); !bytes.Equal(got, data) {
			t.Fatalf("accepted result is not canonical")
		}
	})
}

// FuzzDecodeResultsLoad feeds arbitrary bytes into the status-extended
// result-batch decoder (the frame the edge's backpressure signal rides on).
// Accepted payloads must re-encode canonically through whichever encoder
// matches what was decoded — with the status field when hasLoad, the legacy
// layout otherwise — and must also parse under the strict legacy decoder
// exactly when hasLoad is false.
func FuzzDecodeResultsLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeResults(nil))
	f.Add(EncodeResultsLoad(nil, LoadStatus{QueueDepth: 1, Active: 2}))
	f.Add(EncodeResultsLoad([]Result{{Pred: 3, Conf: 0.5}}, LoadStatus{QueueDepth: 9}))
	// The ambiguity edge: a status batch of n results is as long as a legacy
	// batch of n+1; the count field must pick one interpretation.
	f.Add(EncodeResults([]Result{{Pred: 1, Conf: 1}, {Pred: 2, Conf: 0}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, st, hasLoad, err := DecodeResultsLoad(data)
		if err != nil {
			return
		}
		var back []byte
		if hasLoad {
			back = EncodeResultsLoad(rs, st)
		} else {
			if st != (LoadStatus{}) {
				t.Fatalf("no status on the wire but decoded %+v", st)
			}
			back = EncodeResults(rs)
			if _, legacyErr := DecodeResults(data); legacyErr != nil {
				t.Fatalf("hasLoad=false payload rejected by the strict decoder: %v", legacyErr)
			}
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted payload is not canonical (%d vs %d bytes, hasLoad %v)",
				len(back), len(data), hasLoad)
		}
	})
}

// FuzzDecodeResultLoad covers the status-extended single-result payload.
func FuzzDecodeResultLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeResult(7, 0.25))
	f.Add(EncodeResultLoad(7, 0.25, LoadStatus{QueueDepth: 3, Active: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		pred, conf, st, hasLoad, err := DecodeResultLoad(data)
		if err != nil {
			return
		}
		var back []byte
		if hasLoad {
			back = EncodeResultLoad(pred, conf, st)
		} else {
			back = EncodeResult(pred, conf)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted payload is not canonical (hasLoad %v)", hasLoad)
		}
	})
}

// FuzzDecodeShed feeds arbitrary bytes into the shed-frame decoder (the
// admission-control reply, legacy-compatible like the LoadStatus result
// decoders): accepted payloads must re-encode canonically through whichever
// layout was decoded — EncodeShed when hasLoad, the 8-byte base otherwise.
func FuzzDecodeShed(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeShed(50*time.Millisecond, LoadStatus{QueueDepth: 3, Active: 1}))
	f.Add(EncodeShed(0, LoadStatus{}))
	f.Add(EncodeShed(-time.Second, LoadStatus{QueueDepth: math.MaxUint32}))
	f.Add(make([]byte, 8))
	f.Add(make([]byte, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		retryAfter, st, hasLoad, err := DecodeShed(data)
		if err != nil {
			return
		}
		var back []byte
		if hasLoad {
			back = EncodeShed(retryAfter, st)
		} else {
			if st != (LoadStatus{}) {
				t.Fatalf("no status on the wire but decoded %+v", st)
			}
			back = make([]byte, shedBaseLen)
			binary.LittleEndian.PutUint64(back, uint64(retryAfter))
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted shed payload is not canonical (%d vs %d bytes, hasLoad %v)",
				len(back), len(data), hasLoad)
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
		if IsRelayProbe(data) != (err == nil) {
			t.Fatalf("IsRelayProbe %v but decode error %v on %d bytes", IsRelayProbe(data), err, len(data))
		}
		if err != nil {
			return
		}
		if got := EncodeRelayProbe(ttl); !bytes.Equal(got, data) {
			t.Fatalf("accepted probe payload is not canonical (%d vs %d bytes)", len(got), len(data))
		}
	})
}

// FuzzDecodeRoutedActivation feeds arbitrary bytes into the source-routed
// relay decoder: accepted payloads must re-encode canonically (route header
// validated strictly — monotonic boundaries, bounded position — so no two
// byte strings decode to the same route).
func FuzzDecodeRoutedActivation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3})
	f.Add([]byte{3, 0, 0, 0})
	seed, _ := EncodeRoutedActivation(7, 2, []int{4, 9}, tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2))
	f.Add(seed)
	noRoute, _ := EncodeRoutedActivation(0, 0, nil, tensor.FromSlice([]float32{float32(math.NaN())}, 1, 1, 1, 1))
	f.Add(noRoute)
	f.Fuzz(func(t *testing.T, data []byte) {
		ttl, pos, bounds, act, err := DecodeRoutedActivation(data)
		if err != nil {
			return
		}
		got, err := EncodeRoutedActivation(ttl, pos, bounds, act)
		if err != nil {
			t.Fatalf("accepted route does not re-encode: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("accepted routed payload is not canonical (%d vs %d bytes)", len(got), len(data))
		}
	})
}

// FuzzRoutedActivationRoundTrip builds routes and NCHW batches from fuzzed
// inputs and requires a bitwise-lossless cycle — the property the live cut
// move's bitwise-identity guarantee rests on.
func FuzzRoutedActivationRoundTrip(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(1), uint8(2), int64(1))
	f.Add(uint8(16), uint8(1), uint8(0), uint8(5), int64(-7))
	f.Fuzz(func(t *testing.T, ttl, n, posRaw, hopsRaw uint8, seed int64) {
		pos := int(posRaw) % 64
		bounds := make([]int, int(hopsRaw)%5)
		for i := range bounds {
			bounds[i] = pos + (i+1)*3 // strictly increasing past pos
		}
		shape := []int{int(n)%4 + 1, 2, 3, 3}
		data := make([]float32, shape[0]*shape[1]*shape[2]*shape[3])
		s := uint64(seed)
		for i := range data {
			s = s*6364136223846793005 + 1442695040888963407
			data[i] = math.Float32frombits(uint32(s >> 32))
		}
		in := tensor.FromSlice(data, shape...)
		enc, err := EncodeRoutedActivation(ttl, pos, bounds, in)
		if err != nil {
			t.Fatalf("encode of valid route: %v", err)
		}
		gotTTL, gotPos, gotBounds, out, err := DecodeRoutedActivation(enc)
		if err != nil {
			t.Fatalf("decode of valid routed payload: %v", err)
		}
		if gotTTL != ttl || gotPos != pos || len(gotBounds) != len(bounds) {
			t.Fatalf("route mutated: ttl %d→%d pos %d→%d bounds %v→%v", ttl, gotTTL, pos, gotPos, bounds, gotBounds)
		}
		for i := range bounds {
			if gotBounds[i] != bounds[i] {
				t.Fatalf("boundary %d: %d became %d", i, bounds[i], gotBounds[i])
			}
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

// FuzzDecodeResultsChain feeds arbitrary bytes into the chain-status-extended
// result decoder (the frame the live re-placement solver's telemetry rides
// on): accepted payloads must re-encode canonically through whichever layout
// was decoded, and payloads without the chain section must agree with
// DecodeResultsLoad exactly.
func FuzzDecodeResultsChain(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeResults(nil))
	f.Add(EncodeResultsLoad(nil, LoadStatus{QueueDepth: 1, Active: 2}))
	f.Add(EncodeResultsChain(nil, LoadStatus{}, nil))
	f.Add(EncodeResultsChain([]Result{{Pred: 3, Conf: 0.5}}, LoadStatus{QueueDepth: 9},
		[]StageStatus{{ServiceNanos: 1e6, DownMbps: 93.5, DownRTTNanos: 2e6}, {ServiceNanos: 4e5}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, st, hasLoad, hops, hasChain, err := DecodeResultsChain(data)
		if err != nil {
			return
		}
		var back []byte
		switch {
		case hasChain:
			if !hasLoad {
				t.Fatalf("chain section without load status")
			}
			back = EncodeResultsChain(rs, st, hops)
		case hasLoad:
			if len(hops) != 0 {
				t.Fatalf("no chain section on the wire but decoded %d hop statuses", len(hops))
			}
			back = EncodeResultsLoad(rs, st)
		default:
			back = EncodeResults(rs)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted payload is not canonical (%d vs %d bytes, hasLoad %v hasChain %v)",
				len(back), len(data), hasLoad, hasChain)
		}
		if !hasChain {
			rs2, st2, hasLoad2, lerr := DecodeResultsLoad(data)
			if lerr != nil || hasLoad2 != hasLoad || st2 != st || len(rs2) != len(rs) {
				t.Fatalf("chain decoder disagrees with load decoder on a chain-free payload")
			}
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
	f.Add(EncodeHello(Capabilities{MaxBatch: math.MaxUint32}))
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
