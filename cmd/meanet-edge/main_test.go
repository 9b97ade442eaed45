package main

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/deploy"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/tensor"
)

// TestFlagErrorsBeforeTraining covers every flag-error return of run that
// comes before training, at the default -scale small: each must name its
// flag. None of them trains, dials or listens, so the table runs in
// milliseconds.
func TestFlagErrorsBeforeTraining(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-batch", []string{"-batch", "0"}},
		{"-retries", []string{"-retries", "-1"}},
		{"-threshold", []string{"-threshold", "-0.5"}},
		{"-threshold", []string{"-threshold", "NaN"}},
		{"-offload", []string{"-offload", "pixels"}},
		{"-scale", []string{"-scale", "huge"}},
		{"-latency", []string{"-latency", "-1ms"}},
		{"-mbps", []string{"-mbps", "-1"}},
		{"-mbps", []string{"-mbps", "NaN"}},
		{"-latency-budget", []string{"-latency-budget", "-20ms"}},
		{"-adapt-min-samples", []string{"-adapt-min-samples", "-1"}},
		{"-cuts", []string{"-cuts", "3", "-cloud", "127.0.0.1:1,127.0.0.1:2"}},
		{"-cuts", []string{"-cuts", "3", "-cloud", ""}},
		{"-cuts", []string{"-cuts", "3", "-offload", "features"}},
		{"-cuts", []string{"-cuts", "3,3"}},
		{"-cuts", []string{"-cuts", "6,x"}},
		{"-cuts", []string{"-cuts", "99"}},
		{"-replan", []string{"-replan"}},
		{"-replan-hysteresis", []string{"-cuts", "3", "-replan", "-replan-hysteresis", "0"}},
		{"-replan-hysteresis", []string{"-cuts", "3", "-replan", "-replan-hysteresis", "NaN"}},
		{"-chain-fallback", []string{"-chain-fallback", "127.0.0.1:1"}},
		{"-admin", []string{"-admin", "127.0.0.1:0"}},
		{"-plan-rates", []string{"-plan-rates", "1e9,1e9"}},
		{"-plan-links", []string{"-plan-links", "7@1ms"}},
		{"-plan-links", []string{"-plan", "-plan-rates", "2e8,2e8", "-plan-links", "-7@1ms"}},
		{"-plan-links", []string{"-plan", "-plan-rates", "2e8,2e8", "-plan-links", "7@-1ms"}},
		{"-plan-links", []string{"-plan", "-plan-rates", "2e8,2e8", "-plan-links", "NaN@1ms"}},
		{"-plan-rates", []string{"-plan", "-plan-rates", "NaN,2e8", "-plan-links", "7@1ms"}},
		{"-plan-rates", []string{"-plan", "-plan-rates", "0,2e8", "-plan-links", "7@1ms"}},
		{"-dataset", []string{"-dataset", "mnist"}},
		{"-variant", []string{"-variant", "C"}},
	} {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("run %q = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}

// zeroModel answers every raw instance with zero logits over three classes.
type zeroModel struct{}

func (zeroModel) Logits(x *tensor.Tensor, _ bool) *tensor.Tensor { return tensor.New(x.Dim(0), 3) }

// TestAdminMembership drives the -admin command surface over two loopback
// servers: add dials a replica with the run's settings and joins it with its
// capabilities known, a duplicate add is rejected and its fresh connection
// closed, list prints one row per replica, and remove drains the replica —
// its transport closes, its row stays.
func TestAdminMembership(t *testing.T) {
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
	mc, err := edge.DialMultiCloud([]string{first}, dcfg, edge.MultiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	// conns waits until the second server sees the given connection counts.
	conns := func(what string, total uint64, active int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			st := srvs[1].Stats()
			if st.TotalConns == total && st.ActiveConns == active {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: second server has %d connections, %d open; want %d, %d",
					what, st.TotalConns, st.ActiveConns, total, active)
			}
		}
	}

	if got := adminReply(mc, dcfg, "add "+second); got != "ok added "+second {
		t.Fatalf("add: %q", got)
	}
	if rs := mc.ReplicaStats(); len(rs) != 2 || rs[1].Addr != second || !rs[1].CapsKnown || rs[1].MaxBatch != 4 {
		t.Fatalf("joined replica's capabilities unknown: %+v", rs)
	}
	conns("add", 1, 1)

	if got := adminReply(mc, dcfg, "add "+second); !strings.HasPrefix(got, "err ") || !strings.Contains(got, "already present") {
		t.Fatalf("duplicate add: %q, want an already-present error", got)
	}
	conns("duplicate add", 2, 1)

	list := strings.Split(adminReply(mc, dcfg, "list"), "\n")
	if len(list) != 3 || list[2] != "ok" ||
		!strings.HasPrefix(list[0], "replica "+first+":") || !strings.HasPrefix(list[1], "replica "+second+":") ||
		!strings.HasSuffix(list[1], "no tail, max batch 4") {
		t.Fatalf("list: %q, want one row per replica then ok", list)
	}

	if got := adminReply(mc, dcfg, "remove "+second); !strings.HasPrefix(got, "ok removing "+second) {
		t.Fatalf("remove: %q", got)
	}
	conns("remove", 2, 0)
	if list := adminReply(mc, dcfg, "list"); !strings.Contains(list, "max batch 4 (removed)") {
		t.Fatalf("list after remove: %q, want the removed row kept", list)
	}
}

// TestRunWiring drives run end to end at -scale tiny, the way the binary
// runs, against two loopback servers. Each mounts the deployment's
// partitioned model over the main block meanet-cloud -tail replays, with an
// untrained tail, and the serving chain over both. One row routes over the
// two replicas with -offload auto. The other relays through a one-hop chain
// cut at unit 3, with the second server as its fallback. The chain runs the
// same model split in two, so both rows report the same predictions. Every
// report line that does not depend on timing or routing is pinned.
func TestRunWiring(t *testing.T) {
	spec := deploy.EdgeSpec{Dataset: "c100", Scale: data.ScaleTiny, Seed: 1, Variant: "A",
		Epochs: deploy.DefaultEpochs(data.ScaleTiny)}
	synth, err := deploy.GeneratePreset(spec.Dataset, spec.Scale, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := deploy.BuildEdgeNet(spec, synth.Train.NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deploy.TrainMain(spec, m, synth); err != nil {
		t.Fatal(err)
	}
	cls, err := deploy.BuildTailNet(rand.New(rand.NewSource(1)), m.MainOutChannels(), synth.Train.NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	tail := &cloud.Tail{Body: cls.Backbone, Exit: cls.Exit}
	var addrs [2]string
	for i := range addrs {
		s, err := cloud.NewServer(cloud.Partitioned(m.Main, tail), tail,
			cloud.WithStage(cloud.StageConfig{Chain: deploy.ServingChain(m, tail)}))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		addrs[i] = s.Addr().String()
	}

	shared := []string{
		"accuracy:         77.08%",
		"exits:            main 40, extension 26, cloud 30 (beta 31.2%)",
		"cloud failures:   0",
		"cloud sheds:      0 events, 0 instances fell back to the edge (no upload charged)",
		"bytes uploaded:   12960",
		"edge energy:      0.002 J compute + 0.030 J comm = 0.032 J",
		"modeled latency:  27µs compute + 5.492ms upload",
	}
	for _, tc := range []struct {
		name     string
		args     []string
		replicas int // per-replica rows: the router's, none for one address
		want     []string
	}{
		{"two replicas", []string{"-cloud", addrs[0] + "," + addrs[1], "-offload", "auto"}, 2, []string{
			"uploads:          30 raw, 0 feature (mode auto)",
		}},
		{"one-hop chain", []string{"-cloud", addrs[0], "-cuts", "3", "-chain-fallback", addrs[1]}, 0, []string{
			"uploads:          30 raw, 0 feature (mode raw)",
			"chain paths:      30 instances through the chain, 0 via direct fallback, 0 chain failures, 0 direct failures",
			"chain placement:  cuts [3] after 0 live move(s)",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(append(tc.args, "-scale", "tiny", "-seed", "1"), &out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
			for _, want := range append(shared, tc.want...) {
				if !slices.Contains(lines, want) {
					t.Errorf("report lacks %q:\n%s", want, out.String())
				}
			}
			var replicas, offloads int
			for _, l := range lines {
				var addr string
				var n int
				if _, err := fmt.Sscanf(l, "replica %s %d offloads", &addr, &n); err == nil {
					replicas++
					offloads += n
					if !strings.HasSuffix(l, ", tail, max batch 0") {
						t.Errorf("replica row %q, want the tail capability from the handshake", l)
					}
				}
			}
			if replicas != tc.replicas || (replicas > 0 && offloads != 2) {
				t.Errorf("%d replica rows carrying %d offloads, want %d rows carrying both batches' offloads",
					replicas, offloads, tc.replicas)
			}
		})
	}
}
