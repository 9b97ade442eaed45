package edge

// Characterization of the zero-config closed loop: a fixed (estimate, load,
// shed) script driven through a Runtime nobody called SetAdaptConfig on. The
// literals were read off the tree in which the controller's step sizes,
// deadband, floor and hysteresis were still AdaptConfig fields left at their
// defaults; they hold unchanged now that those are constants, which is the
// evidence that the defaults did not move. The script probes each constant
// from both sides (0.59 vs 0.61 of the budget for the 0.6 headroom, 0.79 vs
// 0.81 for the 0.8 representation hysteresis), so a drifted value changes a
// step, not just a digit.

import (
	"math/rand"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/energy"
	"github.com/meanet/meanet/internal/linkest"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// scriptedCloud is the in-process client with its live signals, and whether
// the next request is shed, set by the script instead of measured.
type scriptedCloud struct {
	*InProcClient
	est  linkest.Estimate
	load protocol.LoadStatus
	shed bool
}

func (c *scriptedCloud) LinkEstimate() linkest.Estimate { return c.est }

func (c *scriptedCloud) CloudLoad() (protocol.LoadStatus, bool) { return c.load, true }

func (c *scriptedCloud) Infer(req protocol.InferRequest) (protocol.InferReply, error) {
	if c.shed {
		// A 1ns hint: the hold it opens has lapsed by the next batch, so the
		// script never waits on the wall clock.
		return protocol.InferReply{}, &ShedError{RetryAfter: time.Nanosecond, HasLoad: true}
	}
	return c.InProcClient.Infer(req)
}

func TestZeroConfigControllerTrajectory(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	backbone, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "defaults", InChannels: 3, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.BuildMEANetA(rng, backbone, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	cloud := &scriptedCloud{InProcClient: tinyPartitionedClient(t, m, 501, 6)}
	cost := &CostParams{
		Compute:      energy.EdgeGPUCIFAR(),
		WiFi:         energy.DefaultWiFi(),
		ImageBytes:   4 * 3 * 16 * 16,
		FeatureBytes: 4 * int64(m.MainOutChannels()) * 8 * 8,
	}
	rt, err := NewRuntime(m, core.Policy{Threshold: 0, UseCloud: true}, cloud, cost)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetOffloadMode(OffloadAuto); err != nil {
		t.Fatal(err)
	}
	const budget = 100 * time.Millisecond
	rt.SetLatencyBudget(budget)
	x := tensor.Randn(rng, 1, 4, 3, 16, 16)

	// rtt is the whole observed latency: at 1e6 Mbps serialization is below a
	// nanosecond's worth of the budget fractions probed here.
	at := func(frac float64, samples int) linkest.Estimate {
		return linkest.Estimate{RTT: time.Duration(frac * float64(budget)), Mbps: 1e6, Samples: samples}
	}
	idle := protocol.LoadStatus{QueueDepth: 0, Active: 1}
	steps := []struct {
		name string
		est  linkest.Estimate
		load protocol.LoadStatus
		shed bool

		threshold float64 // after the batch
		features  bool    // representation the batch uploaded
		flips     int     // cumulative
	}{
		{"immature estimate: static model, no step", at(0.01, 7), idle, false, 0, true, 0},
		{"mature, headroom: floor clamp", at(0.01, 8), idle, false, 0.001, false, 1},
		{"over budget: step up", at(1.01, 8), idle, false, 0.00115, true, 2},
		{"over budget: step up", at(1.01, 9), idle, false, 0.0013224999999999999, true, 2},
		{"just under budget: deadband", at(0.99, 9), idle, false, 0.0013224999999999999, true, 2},
		{"inside hysteresis band: stays features", at(0.81, 9), idle, false, 0.0013224999999999999, true, 2},
		{"under hysteresis band: back to raw", at(0.79, 9), idle, false, 0.0013224999999999999, false, 3},
		{"raw now fits the plain budget", at(0.99, 9), idle, false, 0.0013224999999999999, false, 3},
		{"deadband floor", at(0.61, 9), idle, false, 0.0013224999999999999, false, 3},
		{"headroom: step down", at(0.59, 9), idle, false, 0.0012563749999999998, false, 3},
		{"saturated queue in the deadband: step up", at(0.7, 9), protocol.LoadStatus{QueueDepth: 8, Active: 2}, false, 0.0014448312499999997, false, 3},
		{"parked but not saturated: hold", at(0.7, 9), protocol.LoadStatus{QueueDepth: 2, Active: 4}, false, 0.0014448312499999997, false, 3},
		{"shed: unconditional step up", at(0.01, 9), idle, true, 0.0016615559374999996, false, 3},
		{"headroom: step down", at(0.01, 9), idle, false, 0.0015784781406249996, false, 3},
	}
	raw, feat := 0, 0
	for i, s := range steps {
		cloud.est, cloud.load, cloud.shed = s.est, s.load, s.shed
		if _, err := rt.Classify(x); err != nil {
			t.Fatal(err)
		}
		rep := rt.Report()
		if rep.Threshold != s.threshold {
			t.Errorf("step %d (%s): threshold %v, want %v", i, s.name, rep.Threshold, s.threshold)
		}
		if rep.RepFlips != s.flips {
			t.Errorf("step %d (%s): %d representation flips, want %d", i, s.name, rep.RepFlips, s.flips)
		}
		if !s.shed { // a shed batch uploads nothing
			if gotFeat := rep.FeatureUploads > feat; gotFeat != s.features || (rep.RawUploads > raw) == s.features {
				t.Errorf("step %d (%s): uploaded raw %d→%d, features %d→%d; want features=%v",
					i, s.name, raw, rep.RawUploads, feat, rep.FeatureUploads, s.features)
			}
		}
		raw, feat = rep.RawUploads, rep.FeatureUploads
	}
}
