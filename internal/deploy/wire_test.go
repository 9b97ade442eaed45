package deploy

import (
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/energy"
	"github.com/meanet/meanet/internal/profile"
	"github.com/meanet/meanet/internal/tensor"
)

// zeroModel answers every raw instance with zero logits over three classes.
type zeroModel struct{}

func (zeroModel) Logits(x *tensor.Tensor, _ bool) *tensor.Tensor { return tensor.New(x.Dim(0), 3) }

// TestDialTier covers the one wiring every caller dials the cloud tier
// through: one address is a bare connection with no router, several are a
// router whose members' capabilities are known from the handshake, and a
// list with an unreachable member fails without leaking the connections it
// already opened. A custom redial dials one replica, never a list.
func TestDialTier(t *testing.T) {
	var srvs [2]*cloud.Server
	for i := range srvs {
		s, err := cloud.NewServer(zeroModel{}, nil, cloud.WithBatching(cloud.BatchConfig{MaxBatch: 4}))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		srvs[i] = s
	}
	first, second := srvs[0].Addr().String(), srvs[1].Addr().String()
	dcfg := edge.DialConfig{RequestTimeout: 5 * time.Second}

	t.Run("one address", func(t *testing.T) {
		tier, mc, err := DialTier([]string{first}, dcfg, edge.MultiConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer tier.Close()
		if mc != nil {
			t.Fatal("one address came back with a router")
		}
		if _, ok := tier.(*edge.TCPClient); !ok {
			t.Fatalf("one address dialed a %T, want *edge.TCPClient", tier)
		}
		if err := tier.Ping(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("two addresses", func(t *testing.T) {
		tier, mc, err := DialTier([]string{first, second}, dcfg, edge.MultiConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer tier.Close()
		if mc == nil || tier != Tier(mc) {
			t.Fatalf("two addresses dialed %T with router %v, want the router itself", tier, mc)
		}
		rs := mc.ReplicaStats()
		if len(rs) != 2 {
			t.Fatalf("%d replicas, want 2", len(rs))
		}
		for _, r := range rs {
			if !r.CapsKnown || r.TailCapable || r.MaxBatch != 4 {
				t.Fatalf("replica %s: capabilities %+v, want the handshake's (no tail, max batch 4)", r.Addr, r)
			}
		}
	})

	t.Run("unreachable member", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead := ln.Addr().String()
		ln.Close()
		before := srvs[0].Stats().TotalConns
		if _, _, err := DialTier([]string{first, dead}, dcfg, edge.MultiConfig{}); err == nil {
			t.Fatal("dial with an unreachable replica succeeded")
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			st := srvs[0].Stats()
			if st.TotalConns == before+1 && st.ActiveConns == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("first server: %d connections (%d before), %d open; want the failed dial's one closed",
					st.TotalConns, before, st.ActiveConns)
			}
		}
	})

	t.Run("rejected configurations", func(t *testing.T) {
		redial := edge.DialConfig{Redial: func() (net.Conn, error) { return net.Dial("tcp", first) }}
		if _, _, err := DialTier([]string{first, second}, redial, edge.MultiConfig{}); err == nil {
			t.Fatal("a custom redial was accepted for two replicas")
		}
		if _, _, err := DialTier(nil, dcfg, edge.MultiConfig{}); err == nil {
			t.Fatal("an empty address list was accepted")
		}
	})
}

// TestEdgeCost: the features size comes from the main block's profiled
// output geometry, and agrees with what a forward pass really produces.
func TestEdgeCost(t *testing.T) {
	spec := tinySpec()
	synth, err := GeneratePreset(spec.Dataset, spec.Scale, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildEdgeNet(spec, synth.Train.NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	in := profile.Shape{C: synth.Train.C, H: synth.Train.H, W: synth.Train.W}
	cost, err := EdgeCost(spec, m, in)
	if err != nil {
		t.Fatal(err)
	}
	feat, _ := m.MainForward(tensor.Randn(rand.New(rand.NewSource(1)), 1, 1, in.C, in.H, in.W), false)
	if want := energy.FeatureBytes(int64(feat.Numel())); cost.FeatureBytes != want {
		t.Fatalf("FeatureBytes %d, a forward pass produces %d", cost.FeatureBytes, want)
	}
	if cost.ImageBytes != energy.RawImageBytes(in.H, in.W, in.C) || cost.MainMACs <= 0 || cost.ExtMACs <= 0 ||
		cost.Compute != energy.EdgeGPUCIFAR() {
		t.Fatalf("cost %+v", cost)
	}
	spec.Dataset = "imagenet"
	if cost, err := EdgeCost(spec, m, in); err != nil || cost.Compute != energy.EdgeGPUImageNet() {
		t.Fatalf("imagenet cost %+v, %v: want the ImageNet edge GPU", cost, err)
	}
}

// TestParseRatesLinks is the -plan parsers' table: every rate must be a
// finite positive MACs/s, every link a valid Mbps@latency.
func TestParseRatesLinks(t *testing.T) {
	for _, tc := range []struct {
		in     string
		rates  []float64 // nil: want an error
		names  []string
		errSub string
	}{
		{in: "2e8", rates: []float64{2e8}, names: []string{"edge"}},
		{in: "1e9, 5e9,2e10", rates: []float64{1e9, 5e9, 2e10}, names: []string{"edge", "hop1", "hop2"}},
		{in: "", errSub: "bad rate"},
		{in: "2e8,x", errSub: "bad rate"},
		{in: "0,2e8", errSub: "want a finite"},
		{in: "-1e9", errSub: "want a finite"},
		{in: "NaN,2e8", errSub: "want a finite"},
		{in: "2e8,Inf", errSub: "want a finite"},
	} {
		got, err := ParseRates(tc.in)
		if tc.rates == nil {
			if err == nil || !strings.Contains(err.Error(), tc.errSub) {
				t.Errorf("ParseRates(%q) = %v, %v; want an error containing %q", tc.in, got, err, tc.errSub)
			}
			continue
		}
		if err != nil || len(got) != len(tc.rates) {
			t.Errorf("ParseRates(%q) = %v, %v", tc.in, got, err)
			continue
		}
		for i, d := range got {
			if d.MACsPerSec != tc.rates[i] || d.Name != tc.names[i] {
				t.Errorf("ParseRates(%q)[%d] = %+v, want %s at %g", tc.in, i, d, tc.names[i], tc.rates[i])
			}
		}
	}

	for _, tc := range []struct {
		in     string
		links  []energy.Link // nil: want an error
		errSub string
	}{
		{in: "7@1ms", links: []energy.Link{{Mbps: 7, Latency: time.Millisecond}}},
		{in: "7@1ms, 200@500us", links: []energy.Link{{Mbps: 7, Latency: time.Millisecond}, {Mbps: 200, Latency: 500 * time.Microsecond}}},
		{in: "0@0s", links: []energy.Link{{}}},
		{in: "7", errSub: "want Mbps@latency"},
		{in: "x@1ms", errSub: "bad link bandwidth"},
		{in: "7@soon", errSub: "bad link latency"},
		{in: "-7@1ms", errSub: "bad link"},
		{in: "7@-1ms", errSub: "bad link"},
		{in: "NaN@1ms", errSub: "finite"},
		{in: "Inf@1ms", errSub: "finite"},
	} {
		got, err := ParseLinks(tc.in)
		if tc.links == nil {
			if err == nil || !strings.Contains(err.Error(), tc.errSub) {
				t.Errorf("ParseLinks(%q) = %v, %v; want an error containing %q", tc.in, got, err, tc.errSub)
			}
			continue
		}
		if err != nil || len(got) != len(tc.links) {
			t.Errorf("ParseLinks(%q) = %v, %v", tc.in, got, err)
			continue
		}
		for i := range got {
			if got[i] != tc.links[i] {
				t.Errorf("ParseLinks(%q)[%d] = %+v, want %+v", tc.in, i, got[i], tc.links[i])
			}
		}
	}
}
