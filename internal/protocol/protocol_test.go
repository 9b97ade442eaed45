package protocol

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/meanet/meanet/internal/tensor"
)

func TestFrameRoundTrip(t *testing.T) {
	tests := []Frame{
		{Type: MsgPing, ID: 0},
		{Type: MsgInfer, ID: 42, Payload: []byte{1, 2, 3}},
		{Type: MsgResultBatch, ID: 1 << 60, Payload: EncodeReply(InferReply{Results: []Result{{Pred: 7, Conf: 0.5}}})},
		{Type: MsgError, ID: 9, Payload: []byte("boom")},
		{Type: MsgRelay, ID: 11, Payload: []byte{4, 5, 6}},
	}
	for _, f := range tests {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != f.Type || got.ID != f.ID || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("round trip %+v → %+v", f, got)
		}
	}
}

func TestFrameStreamOrdering(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteFrame(&buf, Frame{Type: MsgPing, ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		f, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if f.ID != uint64(i) {
			t.Fatalf("frame %d out of order: id %d", i, f.ID)
		}
	}
}

func TestReadFrameRejectsBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: MsgPing}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] = 'X'
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadFrameRejectsOversizedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: MsgInfer, Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Forge a giant length field.
	raw[13], raw[14], raw[15], raw[16] = 0xff, 0xff, 0xff, 0xff
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: MsgInfer, Payload: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:40]
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestWriteFrameRejectsHugePayload(t *testing.T) {
	f := Frame{Type: MsgInfer, Payload: make([]byte, MaxPayload+1)}
	if err := WriteFrame(&bytes.Buffer{}, f); err == nil {
		t.Fatal("huge payload accepted")
	}
}

func TestTensorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][]int{{3}, {2, 3}, {3, 8, 8}, {1, 2, 3, 4}}
	for _, shape := range shapes {
		x := tensor.Randn(rng, 1, shape...)
		dec, err := DecodeTensor(EncodeTensor(x))
		if err != nil {
			t.Fatal(err)
		}
		if !dec.SameShape(x) {
			t.Fatalf("shape %v → %v", x.Shape(), dec.Shape())
		}
		for i := range x.Data() {
			if dec.Data()[i] != x.Data()[i] {
				t.Fatal("tensor data corrupted in round trip")
			}
		}
	}
}

func TestTensorRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rank := 1 + rng.Intn(4)
		shape := make([]int, rank)
		for i := range shape {
			shape[i] = 1 + rng.Intn(5)
		}
		x := tensor.Randn(rng, 2, shape...)
		dec, err := DecodeTensor(EncodeTensor(x))
		if err != nil || !dec.SameShape(x) {
			return false
		}
		for i := range x.Data() {
			if dec.Data()[i] != x.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTensorRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{},
		{0},                      // rank 0
		{9},                      // rank too large
		{2, 1, 0, 0, 0},          // truncated dims
		{1, 0, 0, 0, 0},          // zero dimension
		{1, 2, 0, 0, 0, 1, 2, 3}, // wrong data length
	}
	for i, b := range bad {
		if _, err := DecodeTensor(b); err == nil {
			t.Fatalf("garbage %d accepted", i)
		}
	}
}

func TestDecodeTensorRejectsOverflowShape(t *testing.T) {
	// rank 2 with dims ~65k × 65k → overflows MaxPayload bound.
	b := []byte{2, 0xff, 0xff, 0, 0, 0xff, 0xff, 0, 0}
	if _, err := DecodeTensor(b); err == nil {
		t.Fatal("overflowing shape accepted")
	}
}

func TestResultsBatchRoundTrip(t *testing.T) {
	in := []Result{{Pred: 3, Conf: 0.25}, {Pred: 0, Conf: 1}, {Pred: 99, Conf: 0.007}}
	reply, err := DecodeReply(EncodeReply(InferReply{Results: in}))
	if err != nil {
		t.Fatal(err)
	}
	out := reply.Results
	if len(out) != len(in) {
		t.Fatalf("round trip gave %d results, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("result %d = %+v, want %+v", i, out[i], in[i])
		}
	}
	// Empty batches are legal (a chain probe's reply carries no results).
	empty, err := DecodeReply(EncodeReply(InferReply{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Results) != 0 {
		t.Fatalf("empty batch decoded to %d results", len(empty.Results))
	}
}

func TestDecodeResultsRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{
		nil,
		{1, 2},
		{1, 0, 0, 0},             // count 1, no body
		{2, 0, 0, 0, 1, 2, 3, 4}, // count 2, body for half a result
		append([]byte{255, 255, 255, 255}, make([]byte, 32)...),    // absurd count
		EncodeReply(InferReply{Results: []Result{{Pred: 1}}})[:12], // results only: the retired bare layout
		EncodeReply(InferReply{Results: []Result{{Pred: 1}}})[:20], // results + load: the retired status layout
	} {
		if _, err := DecodeReply(b); err == nil {
			t.Fatalf("garbage %v accepted", b)
		}
	}
}

// TestMsgTypeWireValuesStable pins the on-wire numeric value of every
// message type: new types must be APPENDED, never inserted, or mixed-version
// edge/cloud deployments silently misparse each other. Values whose frames
// were retired stay listed so they are never reused.
func TestMsgTypeWireValuesStable(t *testing.T) {
	want := map[MsgType]uint8{
		MsgError:       4,
		MsgPing:        5,
		MsgPong:        6,
		MsgResultBatch: 8,
		MsgShed:        10,
		MsgHello:       11,
		MsgRelay:       12,
		MsgInfer:       14,
	}
	for ty, v := range want {
		if uint8(ty) != v {
			t.Fatalf("%s has wire value %d, want %d", ty, uint8(ty), v)
		}
		if ty.Retired() {
			t.Fatalf("%s is live but reads as retired", ty)
		}
	}
	// 1 classify-raw, 2 classify-features, 3 result, 7 classify-batch,
	// 9 classify-features-batch, 13 relay-routed: all folded into MsgInfer
	// and the one reply layout.
	retired := []uint8{1, 2, 3, 7, 9, 13}
	for v := 0; v < 256; v++ {
		_, live := want[MsgType(v)]
		isRetired := false
		for _, r := range retired {
			isRetired = isRetired || int(r) == v
		}
		if live && isRetired {
			t.Fatalf("wire value %d is both live and retired", v)
		}
		if MsgType(v).Retired() != isRetired {
			t.Fatalf("MsgType(%d).Retired() = %v, want %v", v, MsgType(v).Retired(), isRetired)
		}
	}
}

func TestMsgTypeStrings(t *testing.T) {
	names := map[MsgType]string{
		MsgError:       "error",
		MsgPing:        "ping",
		MsgPong:        "pong",
		MsgResultBatch: "result-batch",
		MsgShed:        "shed",
		MsgHello:       "hello",
		MsgRelay:       "relay",
		MsgInfer:       "infer",
		MsgType(1):     "msgtype(1)",
		MsgType(99):    "msgtype(99)",
	}
	for ty, want := range names {
		if got := ty.String(); got != want {
			t.Fatalf("MsgType(%d).String() = %q, want %q", ty, got, want)
		}
	}
}

// countingWriter counts Write calls — the contract under test is that one
// frame costs exactly ONE write, because shaped links (netsim) charge their
// one-way latency per write: a header+payload frame written as two calls
// would pay the link latency twice per frame.
type countingWriter struct {
	writes int
	bytes  int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

func TestWriteFrameSingleWrite(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), make([]byte, 4096)} {
		w := &countingWriter{}
		if err := WriteFrame(w, Frame{Type: MsgInfer, ID: 1, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Fatalf("payload len %d: frame cost %d Write calls, want exactly 1 (latency per write!)",
				len(payload), w.writes)
		}
		if w.bytes != FrameWireSize(len(payload)) {
			t.Fatalf("payload len %d: wrote %d bytes, want FrameWireSize = %d",
				len(payload), w.bytes, FrameWireSize(len(payload)))
		}
	}
}

func TestFrameWireSize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: MsgPing, ID: 9, Payload: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != FrameWireSize(3) {
		t.Fatalf("frame with 3-byte payload serialized to %d bytes, FrameWireSize says %d",
			buf.Len(), FrameWireSize(3))
	}
}

func TestResultLoadStatusRoundTrip(t *testing.T) {
	st := LoadStatus{QueueDepth: 7, Active: 3}

	// Single result, with status.
	b := EncodeReply(InferReply{Results: []Result{{Pred: -2, Conf: 0.75}}, Load: st})
	got, err := DecodeReply(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 1 || got.Results[0].Pred != -2 || got.Results[0].Conf != 0.75 || got.Load != st {
		t.Fatalf("decoded %+v", got)
	}

	// Result batch, with status.
	for _, rs := range [][]Result{nil, {{Pred: 1, Conf: 0.25}}, {{Pred: 3, Conf: 1}, {Pred: -1, Conf: 0}}} {
		b := EncodeReply(InferReply{Results: rs, Load: st})
		reply, err := DecodeReply(b)
		if err != nil {
			t.Fatal(err)
		}
		got, gotSt := reply.Results, reply.Load
		if gotSt != st || len(got) != len(rs) {
			t.Fatalf("batch of %d: got %d results, status %+v", len(rs), len(got), gotSt)
		}
		for i := range rs {
			if got[i] != rs[i] {
				t.Fatalf("result %d: %+v != %+v", i, got[i], rs[i])
			}
		}
	}
}

func TestShedRoundTrip(t *testing.T) {
	st := LoadStatus{QueueDepth: 12, Active: 4}
	b := EncodeShed(75*time.Millisecond, st)
	retryAfter, got, err := DecodeShed(b)
	if err != nil {
		t.Fatal(err)
	}
	if retryAfter != 75*time.Millisecond || got != st {
		t.Fatalf("decoded %v/%+v", retryAfter, got)
	}

	// Any other length is rejected — the retired 8-byte status-less layout
	// included.
	for _, n := range []int{0, 1, 7, 8, 9, 15, 17, 32} {
		if _, _, err := DecodeShed(make([]byte, n)); err == nil {
			t.Fatalf("%d-byte shed payload accepted", n)
		}
	}
}

func TestRelayProbeRoundTrip(t *testing.T) {
	for _, ttl := range []uint8{0, 1, 16, 255} {
		p := EncodeRelayProbe(ttl)
		got, err := DecodeRelayProbe(p)
		if err != nil || got != ttl {
			t.Fatalf("probe TTL %d round-tripped to %d, %v", ttl, got, err)
		}
	}
	// A legacy static-relay activation payload (TTL byte + tensor on the same
	// wire value) must never read as a probe.
	act := append([]byte{3}, EncodeTensor(tensor.FromSlice([]float32{1, 2}, 1, 1, 1, 2))...)
	if _, err := DecodeRelayProbe(act); err == nil {
		t.Fatalf("DecodeRelayProbe accepted an activation payload")
	}
}

func TestRoutedActivationRoundTrip(t *testing.T) {
	in := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 1, 1, 2, 3)
	enc, err := EncodeInfer(InferRequest{Rep: RepActivation, TTL: 9, Pos: 2, Bounds: []int{5, 8}, Tensor: in})
	if err != nil {
		t.Fatal(err)
	}
	req, err := DecodeInfer(enc)
	if err != nil {
		t.Fatal(err)
	}
	ttl, pos, bounds, out := req.TTL, req.Pos, req.Bounds, req.Tensor
	if ttl != 9 || pos != 2 || len(bounds) != 2 || bounds[0] != 5 || bounds[1] != 8 {
		t.Fatalf("route mutated: ttl=%d pos=%d bounds=%v", ttl, pos, bounds)
	}
	if !out.SameShape(in) {
		t.Fatalf("shape %v became %v", in.Shape(), out.Shape())
	}
	// Terminal frame: no boundaries left.
	enc, err = EncodeInfer(InferRequest{Rep: RepActivation, TTL: 1, Pos: 7, Tensor: in})
	if err != nil {
		t.Fatal(err)
	}
	if req, err = DecodeInfer(enc); err != nil || req.Pos != 7 || len(req.Bounds) != 0 {
		t.Fatalf("terminal route: pos=%d bounds=%v err=%v", req.Pos, req.Bounds, err)
	}
}

func TestRoutedActivationRejectsBadRoutes(t *testing.T) {
	in := tensor.FromSlice([]float32{1}, 1, 1, 1, 1)
	routed := func(ttl uint8, pos int, bounds []int) ([]byte, error) {
		return EncodeInfer(InferRequest{Rep: RepActivation, TTL: ttl, Pos: pos, Bounds: bounds, Tensor: in})
	}
	if _, err := routed(1, 3, []int{3}); err == nil {
		t.Fatalf("boundary == position accepted")
	}
	if _, err := routed(1, 3, []int{5, 4}); err == nil {
		t.Fatalf("non-increasing boundaries accepted")
	}
	if _, err := routed(1, -1, nil); err == nil {
		t.Fatalf("negative position accepted")
	}
	good, err := routed(1, 2, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	// Decoder must apply the same validation. (Header offsets are one past
	// the retired relay frame's: the representation byte leads.)
	bad := append([]byte{}, good...)
	binary.LittleEndian.PutUint16(bad[2:], 4) // pos == bounds[0]
	if _, err := DecodeInfer(bad); err == nil {
		t.Fatalf("decoder accepted boundary == position")
	}
	if _, err := DecodeInfer(good[:4]); err == nil {
		t.Fatalf("decoder accepted truncated header")
	}
	trunc := append([]byte{}, good...)
	trunc[4] = 9 // claims 9 boundaries, carries 1
	if _, err := DecodeInfer(trunc); err == nil {
		t.Fatalf("decoder accepted truncated boundary list")
	}
}

// TestInferRepresentations pins the per-representation contract of the one
// request frame: raw and feature requests are one CHW instance or an NCHW
// batch and carry no route; activations are batched at any rank ≥ 2; unknown
// representations are rejected on both sides of the codec.
func TestInferRepresentations(t *testing.T) {
	chw := tensor.New(2, 3, 3)
	nchw := tensor.New(4, 2, 3, 3)
	flat := tensor.New(4, 7)
	for _, tc := range []struct {
		name      string
		req       InferRequest
		ok        bool
		one       bool
		instances int
	}{
		{"raw instance", InferRequest{Rep: RepRaw, Tensor: chw}, true, true, 1},
		{"raw batch", InferRequest{Rep: RepRaw, Tensor: nchw}, true, false, 4},
		{"features instance", InferRequest{Rep: RepFeatures, Tensor: chw}, true, true, 1},
		{"features batch", InferRequest{Rep: RepFeatures, Tensor: nchw}, true, false, 4},
		{"activation NCHW", InferRequest{Rep: RepActivation, TTL: 3, Pos: 1, Bounds: []int{2}, Tensor: nchw}, true, false, 4},
		{"activation past the flatten", InferRequest{Rep: RepActivation, Pos: 5, Tensor: flat}, true, false, 4},
		{"activation rank 3 is a batch", InferRequest{Rep: RepActivation, Tensor: chw}, true, false, 2},
		{"raw rank 2", InferRequest{Rep: RepRaw, Tensor: flat}, false, false, 0},
		{"raw with a TTL", InferRequest{Rep: RepRaw, TTL: 1, Tensor: chw}, false, false, 0},
		{"features with a route", InferRequest{Rep: RepFeatures, Pos: 1, Bounds: []int{2}, Tensor: nchw}, false, false, 0},
		{"activation rank 1", InferRequest{Rep: RepActivation, Tensor: tensor.New(5)}, false, false, 0},
		{"unknown representation", InferRequest{Rep: 3, Tensor: chw}, false, false, 0},
	} {
		enc, err := EncodeInfer(tc.req)
		if (err == nil) != tc.ok {
			t.Fatalf("%s: encode error %v, want ok=%v", tc.name, err, tc.ok)
		}
		if !tc.ok {
			continue
		}
		got, err := DecodeInfer(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if got.Rep != tc.req.Rep || got.OneInstance() != tc.one || got.Instances() != tc.instances {
			t.Fatalf("%s: decoded rep %s one=%v instances=%d", tc.name, got.Rep, got.OneInstance(), got.Instances())
		}
		if rep, one := PeekInfer(enc); rep != tc.req.Rep || one != tc.one {
			t.Fatalf("%s: PeekInfer = (%s, %v)", tc.name, rep, one)
		}
	}
	// The decoder rejects what the encoder refuses to write.
	good, _ := EncodeInfer(InferRequest{Rep: RepRaw, Tensor: chw})
	for name, mutate := range map[string]func(b []byte){
		"unknown representation":    func(b []byte) { b[0] = 3 },
		"TTL on a raw request":      func(b []byte) { b[1] = 1 },
		"position on a raw request": func(b []byte) { b[2] = 1 },
	} {
		bad := append([]byte{}, good...)
		mutate(bad)
		if _, err := DecodeInfer(bad); err == nil {
			t.Fatalf("decoder accepted %s", name)
		}
	}
}

// TestInferCodecAllocs is where the header is paid for: encoding a MsgInfer
// payload is ONE allocation (header, boundaries and tensor share it), and
// decoding allocates exactly what decoding the bare tensor does — its shape
// and its data, read straight out of the payload's tail — plus the boundary
// list of a routed request. Nothing payload-sized besides the data.
func TestInferCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	batch := tensor.New(16, 8, 12, 12)
	feat := tensor.New(8, 12, 12)
	for _, tc := range []struct {
		name  string
		req   InferRequest
		extra float64 // allocations beyond the bare tensor decode
	}{
		{"features instance", InferRequest{Rep: RepFeatures, Tensor: feat}, 0},
		{"raw batch", InferRequest{Rep: RepRaw, Tensor: batch}, 0},
		{"routed activation", InferRequest{Rep: RepActivation, TTL: 4, Pos: 5, Bounds: []int{6, 9}, Tensor: batch}, 1},
	} {
		if n := testing.AllocsPerRun(20, func() { EncodeInfer(tc.req) }); n != 1 {
			t.Errorf("%s: EncodeInfer allocates %v times, want 1", tc.name, n)
		}
		payload, _ := EncodeInfer(tc.req)
		bare := EncodeTensor(tc.req.Tensor)
		tensorAllocs := testing.AllocsPerRun(20, func() { DecodeTensor(bare) })
		if n := testing.AllocsPerRun(20, func() { DecodeInfer(payload) }); n != tensorAllocs+tc.extra {
			t.Errorf("%s: DecodeInfer allocates %v times, want %v (the bare tensor decode) + %v",
				tc.name, n, tensorAllocs, tc.extra)
		}
		// Bytes, not just counts: one decode may allocate the float data once
		// and small change, never a second payload-sized buffer.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		DecodeInfer(payload)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*tc.req.Tensor.Numel()+512); got > limit {
			t.Errorf("%s: DecodeInfer allocated %d bytes for a %d-byte payload, want <= %d", tc.name, got, len(payload), limit)
		}
	}
	if n := testing.AllocsPerRun(20, func() { EncodeTensor(batch) }); n != 1 {
		t.Errorf("EncodeTensor allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(20, func() { EncodeReply(InferReply{Results: []Result{{Pred: 1}}}) }); n != 1 {
		t.Errorf("EncodeReply allocates %v times, want 1", n)
	}
}

func TestResultsChainRoundTrip(t *testing.T) {
	rs := []Result{{Pred: 3, Conf: 0.5}, {Pred: 1, Conf: 0.25}}
	st := LoadStatus{QueueDepth: 4, Active: 2}
	hops := []StageStatus{
		{ServiceNanos: 1_500_000, DownMbps: 93.5, DownRTTNanos: 2_000_000},
		{ServiceNanos: 800_000}, // terminal hop: no downstream link
	}
	enc := EncodeReply(InferReply{Results: rs, Load: st, Hops: hops})
	got, err := DecodeReply(enc)
	if err != nil {
		t.Fatal(err)
	}
	gotRS, gotST, gotHops := got.Results, got.Load, got.Hops
	if len(gotRS) != len(rs) || gotRS[0] != rs[0] || gotRS[1] != rs[1] {
		t.Fatalf("results mutated: %+v", gotRS)
	}
	if gotST != st {
		t.Fatalf("load status %+v became %+v", st, gotST)
	}
	if len(gotHops) != 2 || gotHops[0] != hops[0] || gotHops[1] != hops[1] {
		t.Fatalf("hop statuses mutated: %+v", gotHops)
	}
}

// TestHelloFlagBits pins the flags byte of the capability handshake: bit 0
// tail-capable, bit 1 serves a chain, every other bit rejected.
func TestHelloFlagBits(t *testing.T) {
	for flags, want := range map[byte]Capabilities{
		0: {},
		1: {TailCapable: true},
		2: {ServesChain: true},
		3: {TailCapable: true, ServesChain: true},
	} {
		want.MaxBatch = 8
		enc := EncodeHello(want)
		if enc[0] != flags {
			t.Fatalf("%+v encodes flags %#x, want %#x", want, enc[0], flags)
		}
		got, err := DecodeHello(enc)
		if err != nil || got != want {
			t.Fatalf("flags %#x decoded to %+v, %v", flags, got, err)
		}
	}
	for bit := 2; bit < 8; bit++ {
		if _, err := DecodeHello([]byte{1 << bit, 0, 0, 0, 0}); err == nil {
			t.Fatalf("unknown hello flag bit %d accepted", bit)
		}
	}
	for rep, want := range map[Rep]bool{RepRaw: true, RepFeatures: false, RepActivation: true} {
		if got := (Capabilities{ServesChain: true}).Serves(rep); got != want {
			t.Fatalf("chain-only server Serves(%s) = %v", rep, got)
		}
	}
}
