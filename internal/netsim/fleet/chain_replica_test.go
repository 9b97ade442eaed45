package fleet_test

// A chain position as a SET of devices: edge → hop 1 → {hop 2a, hop 2b}, the
// set behind hop 1's downstream MultiClient — the same router the edge uses
// for its replica tier, so the hop keeps no health model of its own. One
// member dies under load: every frame must still answer bitwise like the
// monolithic model and the books must balance exactly at every level. The
// refusal contract is pinned over real sockets too: a set whose every member
// sheds reaches the edge as a shed (the zero-charge hold), a shed mixed with a
// dead member as an error.

import (
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/netsim/fleet"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// startHop brings up one pure stage hop over chain on loopback.
func startHop(t *testing.T, chain []nn.Layer, down cloud.Downstream) *cloud.Server {
	t.Helper()
	srv, err := cloud.NewServer(nil, nil, cloud.WithStage(cloud.StageConfig{Chain: chain, Downstream: down}))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// dialSet dials a replica-set downstream the way meanet-cloud -downstream a,b
// does.
func dialSet(t *testing.T, addrs ...string) *edge.MultiClient {
	t.Helper()
	set, err := edge.DialMultiCloud(addrs,
		edge.DialConfig{RequestTimeout: 5 * time.Second, RedialBackoff: 2 * time.Millisecond}, edge.MultiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	return set
}

func TestReplicaSetHopMemberDeath(t *testing.T) {
	cls, in := chainServingModel(t, 75)
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	cuts := []core.CutPoint{core.CutPoint(len(chain) / 3), core.CutPoint(2 * len(chain) / 3)}

	// Hop 2b is the slower device of the set (same layers, so same answers):
	// the router's capacity weighting sends 2a most of the work while it
	// lives — and keeps preferring it once it is dead, so the failover path
	// is exercised by construction, not by luck of the p2c draw.
	slowChain := append([]nn.Layer(nil), chain...)
	slowChain[len(chain)-1] = &fleet.SlowStage{Inner: chain[len(chain)-1], Delay: 2 * time.Millisecond}
	hop2a, hop2b := startHop(t, chain, nil), startHop(t, slowChain, nil)
	set := dialSet(t, hop2a.Addr().String(), hop2b.Addr().String())
	hop1 := startHop(t, chain, set)

	// The direct replica: frames in flight on the chain when it breaks fall
	// back here, and the same classifier keeps them bitwise identical.
	replica, err := cloud.NewServer(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	direct, err := edge.DialCloud(replica.Addr().String(), edge.DialConfig{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	next, err := edge.DialCloud(hop1.Addr().String(), edge.DialConfig{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	client, err := edge.NewRoutedChainClient(next, edge.ChainConfig{Chain: chain, Cuts: cuts, Direct: direct})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(76))
	imgs := make([]*tensor.Tensor, 6)
	wantPreds := make([]int, len(imgs))
	wantConfs := make([]float64, len(imgs))
	inproc := &edge.InProcClient{Model: cls}
	for i := range imgs {
		imgs[i] = tensor.Randn(rng, 1, in.C, in.H, in.W)
		if wantPreds[i], wantConfs[i], err = inproc.Classify(imgs[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Workers classify single images without pause while the main goroutine
	// kills hop 2a. The kill takes the write side of a lock the workers hold
	// around each call, so it lands at an instant when no frame is in flight
	// on the dying member: a frame 2a served but could not answer would be
	// served AGAIN by 2b, and the served-versus-relayed identity below is
	// exact only without such a frame. Load resumes the same microsecond,
	// with the dead member still in hop 1's rotation.
	const workers = 4
	perWorker := 30 * faultSoakScale()
	var gate sync.RWMutex
	var wg sync.WaitGroup
	killAt := make(chan struct{})
	var once sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w == 0 && i == perWorker/3 {
					once.Do(func() { close(killAt) })
				}
				idx := (w + i) % len(imgs)
				gate.RLock()
				pred, conf, err := client.Classify(imgs[idx])
				gate.RUnlock()
				if err != nil {
					t.Errorf("worker %d frame %d: %v", w, i, err)
					return
				}
				if pred != wantPreds[idx] {
					t.Errorf("img %d: pred %d, monolithic %d (must be bitwise identical)", idx, pred, wantPreds[idx])
				}
				if diff := conf - wantConfs[idx]; diff > 1e-6 || diff < -1e-6 {
					t.Errorf("img %d: conf %v, monolithic %v", idx, conf, wantConfs[idx])
				}
			}
		}(w)
	}
	<-killAt
	gate.Lock()
	servedBeforeKill := hop2a.Stats().InstancesServed
	hop2a.Close()
	gate.Unlock()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	fed := uint64(workers * perWorker)
	st := client.ChainStats()
	if st.ChainInstances+st.FallbackInstances != fed {
		t.Fatalf("edge books: %d chain + %d fallback, fed %d", st.ChainInstances, st.FallbackInstances, fed)
	}
	s1, s2a, s2b := hop1.Stats(), hop2a.Stats(), hop2b.Stats()
	if s1.Relayed != s2a.InstancesServed+s2b.InstancesServed {
		t.Fatalf("hop books: hop 1 relayed %d, members served %d + %d", s1.Relayed, s2a.InstancesServed, s2b.InstancesServed)
	}
	if s1.Relayed != st.ChainInstances {
		t.Fatalf("hop 1 relayed %d instances, the edge counted %d through the chain", s1.Relayed, st.ChainInstances)
	}
	if s2a.InstancesServed != servedBeforeKill {
		t.Fatalf("dead member served %d after the kill", s2a.InstancesServed-servedBeforeKill)
	}
	if servedBeforeKill == 0 || s2b.InstancesServed == 0 {
		t.Fatalf("routing never used both members: 2a %d, 2b %d", servedBeforeKill, s2b.InstancesServed)
	}
	// The set healed hop-locally: hop 1 answered every frame, so the edge saw
	// no chain failure and the fallback stayed idle.
	if st.ChainFailures != 0 || st.FallbackInstances != 0 || s1.Errors != 0 {
		t.Fatalf("member death leaked past hop 1: edge %+v, hop 1 errors %d", st, s1.Errors)
	}
	var failures uint64
	for _, rs := range set.ReplicaStats() {
		failures += rs.Failures
	}
	if failures == 0 {
		t.Fatal("hop 1's router recorded no failure on the dead member")
	}
	t.Logf("replica-set hop: %d frames, 2a served %d then died, 2b served %d, %d router failure(s), 0 reached the edge",
		fed, servedBeforeKill, s2b.InstancesServed, failures)
}

// startSheddingHop is a chain member under permanent admission control: it
// speaks the frame protocol and refuses every relay with the given hint.
func startSheddingHop(t *testing.T, hint time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					f, err := protocol.ReadFrame(conn)
					if err != nil {
						return
					}
					resp := protocol.Frame{Type: protocol.MsgError, ID: f.ID, Payload: []byte("shedding stand-in")}
					if f.Type == protocol.MsgInfer {
						resp = protocol.Frame{Type: protocol.MsgShed, ID: f.ID, Payload: protocol.EncodeShed(hint, protocol.LoadStatus{})}
					}
					if protocol.WriteFrame(conn, resp) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func TestReplicaSetHopShedContract(t *testing.T) {
	cls, in := chainServingModel(t, 77)
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	cuts := []core.CutPoint{core.CutPoint(len(chain) / 3), core.CutPoint(2 * len(chain) / 3)}
	img := tensor.Randn(rand.New(rand.NewSource(78)), 1, in.C, in.H, in.W)
	chainOver := func(set *edge.MultiClient) (*edge.ChainClient, *cloud.Server) {
		hop1 := startHop(t, chain, set)
		next, err := edge.DialCloud(hop1.Addr().String(), edge.DialConfig{RequestTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		client, err := edge.NewRoutedChainClient(next, edge.ChainConfig{Chain: chain, Cuts: cuts})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		return client, hop1
	}

	// Every member sheds: the refusal travels hop 2 → hop 1 → edge as a
	// shed frame, hint intact within the members' range, charged nowhere as
	// an error.
	client, hop1 := chainOver(dialSet(t, startSheddingHop(t, 300*time.Millisecond), startSheddingHop(t, 700*time.Millisecond)))
	_, _, err := client.Classify(img)
	var se *protocol.ShedError
	if !errors.Is(err, protocol.ErrShed) || !errors.As(err, &se) {
		t.Fatalf("all-members-shed reached the edge as %v, want a shed", err)
	}
	if se.RetryAfter <= 0 || se.RetryAfter > 700*time.Millisecond {
		t.Fatalf("shed hint %v at the edge, want within the members' hints (0, 700ms]", se.RetryAfter)
	}
	if client.Sheds() != 1 || hop1.Stats().Errors != 0 || client.ChainStats().ChainFailures != 0 {
		t.Fatalf("a refusal was charged as a failure: %d shed frames, hop 1 errors %d, edge %+v",
			client.Sheds(), hop1.Stats().Errors, client.ChainStats())
	}

	// One member sheds, the other is dead: something is actually broken, so
	// the edge must see an error — a hold would stop billing failed attempts.
	doomed := startHop(t, chain, nil)
	set := dialSet(t, startSheddingHop(t, 300*time.Millisecond), doomed.Addr().String())
	doomed.Close()
	client, hop1 = chainOver(set)
	_, _, err = client.Classify(img)
	if err == nil || errors.Is(err, protocol.ErrShed) || !strings.Contains(err.Error(), "downstream relay") {
		t.Fatalf("shed+dead mix reached the edge as %v, want a downstream error", err)
	}
	if client.Sheds() != 0 || hop1.Stats().Errors != 1 || client.ChainStats().ChainFailures != 1 {
		t.Fatalf("mixed outage accounting: %d shed frames, hop 1 errors %d, edge %+v",
			client.Sheds(), hop1.Stats().Errors, client.ChainStats())
	}
}
