package fleet_test

// Chain fault-injection scenarios: the degraded-mode and live re-placement
// halves of chain resilience, measured over real TCP hops.
//
//   - Mid-hop death: a 3-hop static chain loses its terminal hop mid-soak.
//     The edge must keep serving through the direct-offload fallback at a
//     throughput comparable to a pure direct baseline, with EXACT per-path
//     accounting (chain + fallback == total, nothing lost or double-counted),
//     ProbeChain must name the broken hop, and once a replacement server
//     lands on the dead hop's address the chain must heal through the
//     existing transports' redial — no client restart.
//   - Live cut move: a routed chain starts on deliberately bad cuts; the
//     re-solver must move them from measured telemetry alone while
//     concurrent in-flight frames keep completing on the old route, every
//     prediction stays bitwise identical to the monolithic model, and the
//     moved chain's throughput lands within 20% of a freshly configured
//     client at the same cuts.
//
// Both are soak tests: MEANET_SOAK_SCALE stretches the load phases.

import (
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/netsim/fleet"
	"github.com/meanet/meanet/internal/profile"
	"github.com/meanet/meanet/internal/tensor"
)

// faultSoakScale mirrors the fleet package's soakScale for the external test
// package: the nightly soak workflow sets MEANET_SOAK_SCALE to stretch the
// load phases without a code change.
func faultSoakScale() int {
	s := os.Getenv("MEANET_SOAK_SCALE")
	if s == "" {
		return 1
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 1
	}
	return n
}

// chainServingModel builds the small real classifier the fault scenarios
// serve: predictions must be checkable bitwise against the in-process model,
// so unlike the throughput scenarios these chains run real math.
func chainServingModel(t *testing.T, seed int64) (*models.Classifier, profile.Shape) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "chainfault", InChannels: 3, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return models.NewClassifier(rng, b, 5), profile.Shape{C: 3, H: 12, W: 12}
}

// TestChainMidHopDeathFallsBackDirect is the degraded-mode soak: kill the
// chain's terminal hop mid-run (the first hop stays up, so the failure is a
// MID-CHAIN break, not a dead uplink) and require continued service through
// the direct fallback, exact accounting, probe-located failure, and hop-local
// healing once a replacement server takes the dead hop's address.
func TestChainMidHopDeathFallsBackDirect(t *testing.T) {
	cls, in := chainServingModel(t, 71)
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	cuts := []core.CutPoint{
		core.CutPoint(len(chain) / 3), core.CutPoint(2 * len(chain) / 3),
	}
	ch, err := fleet.StartChain([]fleet.ChainHop{{Chain: chain}, {Chain: chain}})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()

	// The direct-offload replica the degraded mode falls back to: a
	// monolithic server over the SAME classifier, so fallback predictions
	// stay bitwise identical to chain predictions.
	replica, err := cloud.NewServer(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	dialCfg := edge.DialConfig{RequestTimeout: 5 * time.Second, RedialBackoff: 2 * time.Millisecond}
	direct, err := edge.DialCloud(replica.Addr().String(), dialCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	next, err := edge.DialCloud(ch.Addr(), dialCfg)
	if err != nil {
		t.Fatal(err)
	}
	client, err := edge.NewRoutedChainClient(next, edge.ChainConfig{Chain: chain, Cuts: cuts})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetDirect(direct)

	rng := rand.New(rand.NewSource(72))
	img := tensor.Randn(rng, 1, in.C, in.H, in.W)
	inproc := &edge.InProcClient{Model: cls}
	wantPred, _, err := inproc.Classify(img)
	if err != nil {
		t.Fatal(err)
	}

	phase := 40 * faultSoakScale()
	total := 0

	// Healthy phase: everything rides the chain, the probe sees both hops.
	if _, err := fleet.RunChainLoad(client, img, 4, phase); err != nil {
		t.Fatalf("healthy chain load: %v", err)
	}
	total += phase
	if hops, err := client.ProbeChain(); err != nil || hops != 2 {
		t.Fatalf("healthy probe: %d hops, err %v (want 2, nil)", hops, err)
	}
	st := client.ChainStats()
	if st.ChainInstances != uint64(phase) || st.FallbackInstances != 0 {
		t.Fatalf("healthy accounting: %+v, want %d chain / 0 fallback", st, phase)
	}

	// Kill the terminal hop. The chain is now broken one leg PAST the hop
	// the edge dials.
	deadAddr := ch.Servers[1].Addr().String()
	ch.Servers[1].Close()

	// The probe must locate the break at hop 2: hop 1 answers, its
	// downstream leg is dead, and exactly one "downstream relay:" wrapper
	// marks the depth.
	if hop, err := client.ProbeChain(); err == nil || hop != 2 {
		t.Fatalf("dead-hop probe: hop %d, err %v (want hop 2 and an error)", hop, err)
	} else if !strings.Contains(err.Error(), "hop 2") {
		t.Fatalf("probe error does not name the failing hop: %v", err)
	}

	// Degraded phase: every classify fails over to the direct replica —
	// service NEVER drops to zero — and the per-path books stay exact.
	degStart := time.Now()
	if _, err := fleet.RunChainLoad(client, img, 4, phase); err != nil {
		t.Fatalf("degraded load: %v", err)
	}
	degRate := float64(phase) / time.Since(degStart).Seconds()
	total += phase
	st = client.ChainStats()
	if st.ChainInstances != uint64(phase) || st.FallbackInstances != uint64(phase) {
		t.Fatalf("degraded accounting: %+v, want %d chain / %d fallback", st, phase, phase)
	}
	if st.ChainFailures == 0 {
		t.Fatalf("degraded phase recorded no chain failures: %+v", st)
	}

	// The degraded path is the direct baseline plus one fast failed chain
	// attempt per batch, so its throughput must stay comparable to a pure
	// direct client against the same replica — the "degrades, never dies"
	// contract (the margin absorbs CI scheduling noise, not a real gap).
	baseClient, err := edge.DialCloud(replica.Addr().String(), dialCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer baseClient.Close()
	baseStart := time.Now()
	if _, err := fleet.RunChainLoad(baseClient, img, 4, phase); err != nil {
		t.Fatalf("direct baseline load: %v", err)
	}
	baseRate := float64(phase) / time.Since(baseStart).Seconds()
	if degRate < 0.5*baseRate {
		t.Fatalf("degraded throughput %.1f img/s fell below half the direct baseline %.1f img/s", degRate, baseRate)
	}

	// Heal: a replacement terminal server takes the dead hop's ADDRESS. Hop
	// 1's existing downstream transport must redial into it — no client on
	// either side is restarted.
	healed, err := cloud.NewServer(nil, nil, cloud.WithStage(cloud.StageConfig{Chain: chain}))
	if err != nil {
		t.Fatal(err)
	}
	listenDeadline := time.Now().Add(5 * time.Second)
	for {
		if err = healed.Listen(deadAddr); err == nil {
			break
		}
		if time.Now().After(listenDeadline) {
			t.Fatalf("replacement server could not take %s: %v", deadAddr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer healed.Close()

	chainBefore := st.ChainInstances
	recoverDeadline := time.Now().Add(15 * time.Second)
	for client.ChainStats().ChainInstances == chainBefore {
		if time.Now().After(recoverDeadline) {
			t.Fatalf("chain never recovered after redial: %+v", client.ChainStats())
		}
		pred, _, err := client.Classify(img)
		if err != nil {
			t.Fatalf("classify during recovery: %v", err)
		}
		if pred != wantPred {
			t.Fatalf("recovery-phase pred %d, monolithic %d (must be bitwise identical)", pred, wantPred)
		}
		total++
	}
	if hops, err := client.ProbeChain(); err != nil || hops != 2 {
		t.Fatalf("post-heal probe: %d hops, err %v (want 2, nil)", hops, err)
	}

	// The exact accounting identity across all three phases: every instance
	// fed in came out of exactly one path.
	st = client.ChainStats()
	if got := st.ChainInstances + st.FallbackInstances; got != uint64(total) {
		t.Fatalf("accounting identity broken: %d chain + %d fallback = %d, fed %d",
			st.ChainInstances, st.FallbackInstances, got, total)
	}
	t.Logf("mid-hop death soak: %d instances (%d chain / %d fallback, %d chain failures); degraded %.1f img/s vs direct %.1f img/s",
		total, st.ChainInstances, st.FallbackInstances, st.ChainFailures, degRate, baseRate)
}

// TestChainLiveCutMove is the re-placement soak: a routed 3-device chain
// (edge + 2 hops, every hop holding the FULL chain) starts on deliberately
// bad cuts that ship a huge early activation across a slow shaped uplink. The
// re-solver, fed only by measured telemetry, must move the cuts; concurrent
// workers keep classifying THROUGH the move with every prediction bitwise
// identical to the monolithic model (drain-never-abort); and the moved
// chain's throughput must land within 20% of a client freshly configured at
// the same cuts.
func TestChainLiveCutMove(t *testing.T) {
	cls, in := chainServingModel(t, 73)
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	if len(chain) < 5 {
		t.Fatalf("chain too short for a meaningful move: %d units", len(chain))
	}
	// Both links slow enough that frame serialization is observable (the
	// estimators need sends past their minimum duration to report Mbps) and
	// transfer, not loopback compute, decides the placement.
	uplink := netsim.Link{Latency: 2 * time.Millisecond, Mbps: 5}
	interlink := netsim.Link{Latency: 500 * time.Microsecond, Mbps: 5}
	ch, err := fleet.StartChain([]fleet.ChainHop{
		{Chain: chain, Link: interlink},
		{Chain: chain},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()

	next, err := edge.DialCloud(ch.Addr(), edge.DialConfig{Link: uplink})
	if err != nil {
		t.Fatal(err)
	}
	initialCuts := []core.CutPoint{1, 2}
	client, err := edge.NewRoutedChainClient(next, edge.ChainConfig{
		Chain: chain,
		Cuts:  append([]core.CutPoint(nil), initialCuts...),
		Replan: edge.ReplanConfig{
			Enabled:        true,
			Interval:       25 * time.Millisecond,
			In:             in,
			EdgeMACsPerSec: 1e9,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(74))
	imgs := make([]*tensor.Tensor, 4)
	wantPreds := make([]int, len(imgs))
	wantConfs := make([]float64, len(imgs))
	inproc := &edge.InProcClient{Model: cls}
	for i := range imgs {
		imgs[i] = tensor.Randn(rng, 1, in.C, in.H, in.W)
		if wantPreds[i], wantConfs[i], err = inproc.Classify(imgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	checkBitwise := func(idx, pred int, conf float64) {
		if pred != wantPreds[idx] {
			t.Errorf("img %d: chain pred %d, monolithic %d (must be bitwise identical)", idx, pred, wantPreds[idx])
		}
		if diff := conf - wantConfs[idx]; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("img %d: chain conf %v, monolithic %v", idx, conf, wantConfs[idx])
		}
	}

	// Concurrent workers classify until the re-solver moves the cuts, so the
	// move lands while frames are genuinely in flight. Every worker verifies
	// every answer — before, during and after the switch.
	const workers = 3
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i += workers {
				select {
				case <-stop:
					return
				default:
				}
				idx := i % len(imgs)
				pred, conf, err := client.Classify(imgs[idx])
				if err != nil {
					t.Errorf("worker %d classify: %v", w, err)
					return
				}
				checkBitwise(idx, pred, conf)
			}
		}(w)
	}
	moveDeadline := time.Now().Add(30 * time.Second)
	for client.ChainStats().CutMoves == 0 {
		if time.Now().After(moveDeadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("re-solver never moved the cuts: %+v, link %+v", client.ChainStats(), client.LinkEstimate())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	moved := client.ChainStats()
	if cutsMatch(moved.Cuts, initialCuts) {
		t.Fatalf("CutMoves=%d but cuts still %v", moved.CutMoves, moved.Cuts)
	}

	// Post-move phase: the moved client must serve — still bitwise exact —
	// within 20% of a client STARTED at the solved cuts (the freshly-solved
	// static placement the acceptance criterion compares against).
	measure := 40 * faultSoakScale()
	movedStart := time.Now()
	for i := 0; i < measure; i++ {
		idx := i % len(imgs)
		pred, conf, err := client.Classify(imgs[idx])
		if err != nil {
			t.Fatalf("post-move classify: %v", err)
		}
		checkBitwise(idx, pred, conf)
	}
	movedRate := float64(measure) / time.Since(movedStart).Seconds()

	freshNext, err := edge.DialCloud(ch.Addr(), edge.DialConfig{Link: uplink})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := edge.NewRoutedChainClient(freshNext, edge.ChainConfig{
		Chain: chain,
		Cuts:  append([]core.CutPoint(nil), moved.Cuts...),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	freshStart := time.Now()
	for i := 0; i < measure; i++ {
		idx := i % len(imgs)
		pred, conf, err := fresh.Classify(imgs[idx])
		if err != nil {
			t.Fatalf("fresh-client classify: %v", err)
		}
		checkBitwise(idx, pred, conf)
	}
	freshRate := float64(measure) / time.Since(freshStart).Seconds()
	if t.Failed() {
		t.FailNow()
	}
	if movedRate < 0.8*freshRate {
		t.Fatalf("moved chain serves %.1f img/s, freshly-solved placement %.1f img/s — recovery worse than 20%%",
			movedRate, freshRate)
	}
	t.Logf("live cut move: %v -> %v after %d move(s); moved %.1f img/s vs fresh %.1f img/s",
		initialCuts, moved.Cuts, moved.CutMoves, movedRate, freshRate)
}

func cutsMatch(a, b []core.CutPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
