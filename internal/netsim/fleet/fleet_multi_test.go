package fleet

// Multi-replica fleet tests: N edges routing across M cloud replicas via
// edge.MultiClient. The clean companion pins EXACT cross-agreement between
// the edges' books and the sum of the replicas' books; the soak kills one
// replica mid-run and demands continued service with zero accounting drift.

import (
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
)

// soakScale is the nightly-CI duration multiplier: the soak workflow sets
// MEANET_SOAK_SCALE=10 to stretch the soak tests to ~10× the default work
// without a code change. Defaults to 1; invalid values are ignored.
func soakScale() int {
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

// startReplicas boots M cloud servers over the given model factory and
// returns them with their addresses. The caller owns the servers.
func startReplicas(t *testing.T, m int, build func(r int) (*cloud.Server, error)) ([]*cloud.Server, []string) {
	t.Helper()
	servers := make([]*cloud.Server, m)
	addrs := make([]string, m)
	for r := 0; r < m; r++ {
		srv, err := build(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		servers[r] = srv
		addrs[r] = srv.Addr().String()
	}
	return servers, addrs
}

// TestFleetMultiReplicaCleanExactAgreement runs 2 healthy replicas with no
// shedding: the edge-side books and the sum of the server-side books must
// agree exactly — instances, wire bytes, zero sheds — and BOTH replicas must
// have carried offloads (the router actually balances, it does not pin to
// one replica).
func TestFleetMultiReplicaCleanExactAgreement(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	m, cls, x, cost := fleetFixture(t, 3)
	servers, addrs := startReplicas(t, 2, func(int) (*cloud.Server, error) {
		return cloud.NewServer(cls, nil)
	})

	res, err := Run(Config{
		Addrs:   addrs,
		Edges:   4,
		Batches: 6,
		Net:     m,
		Policy:  core.Policy{Threshold: 0, UseCloud: true},
		Cost:    cost,
		Input:   x,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 4 * 6 * x.Dim(0)
	if res.Instances != total || res.EdgeServed+res.CloudServed+res.ShedFallbacks != total {
		t.Fatalf("accounting identity broken: %+v, want %d instances", res, total)
	}
	if res.CloudServed == 0 {
		t.Fatal("multi-replica fleet never reached the cloud")
	}
	if res.ShedEvents != 0 || res.ShedFallbacks != 0 {
		t.Fatalf("shed activity without a ShedPolicy: %d/%d", res.ShedEvents, res.ShedFallbacks)
	}
	if len(res.Replicas) != 2 {
		t.Fatalf("aggregated %d replicas, want 2", len(res.Replicas))
	}
	var served, bytesIn, offloads uint64
	for _, srv := range servers {
		st := srv.Stats()
		served += st.InstancesServed
		bytesIn += st.BytesIn
	}
	for r, rt := range res.Replicas {
		if rt.Offloads == 0 {
			t.Fatalf("replica %d (%s) carried no offloads — router pinned to one replica: %+v",
				r, rt.Addr, res.Replicas)
		}
		if rt.Failures != 0 || rt.Sheds != 0 {
			t.Fatalf("replica %d saw %d failures / %d sheds on clean links", r, rt.Failures, rt.Sheds)
		}
		offloads += rt.Offloads
	}
	if served != uint64(res.CloudServed) {
		t.Fatalf("servers served %d instances, edges counted %d cloud exits", served, res.CloudServed)
	}
	var wireBytes uint64
	for _, er := range res.Edges {
		wireBytes += er.WireBytes
		if got := len(er.Replicas); got != 2 {
			t.Fatalf("edge %d report has %d replica entries, want 2", er.Index, got)
		}
	}
	if bytesIn != wireBytes {
		t.Fatalf("wire bytes disagree: clients sent %d, servers read %d", wireBytes, bytesIn)
	}
	for _, srv := range servers {
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	checkNoGoroutineLeaks(t, goroutinesBefore)
}

// TestFleetMultiReplicaSoakKillOne is the replica-outage soak: N edges route
// across 3 slow shedding replicas, and one replica is killed for good once
// the fleet is warmed up. Required outcome: the run completes with the exact
// accounting identity intact (no instance lost or double-counted, byte
// algebra balanced), the dead replica shows transport failures in the
// per-replica books, and the survivors carry the rest of the load.
func TestFleetMultiReplicaSoakKillOne(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	m, cls, x, cost := fleetFixture(t, 4)
	servers, addrs := startReplicas(t, 3, func(int) (*cloud.Server, error) {
		return cloud.NewServer(
			&SlowModel{Inner: cls, Delay: time.Millisecond},
			nil,
			cloud.WithShedding(cloud.ShedPolicy{MaxInFlight: 3, RetryAfter: 5 * time.Millisecond}),
		)
	})

	edges, batches := 8, 30
	if testing.Short() {
		edges, batches = 6, 12
	}
	batches *= soakScale()

	// Kill replica 1 once it demonstrably served traffic: from then on its
	// connections are dead and every redial is refused, so the router must
	// survive on exclusion windows + the two remaining replicas.
	const victim = 1
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for servers[victim].Stats().InstancesServed < uint64(2*x.Dim(0)) {
			time.Sleep(2 * time.Millisecond)
		}
		servers[victim].Close()
	}()

	res, err := Run(Config{
		Addrs:   addrs,
		Edges:   edges,
		Batches: batches,
		Net:     m,
		Policy:  core.Policy{Threshold: 0.25, UseCloud: true, CloudRetries: 2},
		Cost:    cost,
		Input:   x,
		ClientConfig: edge.DialConfig{
			RequestTimeout: 2 * time.Second,
			RedialBackoff:  2 * time.Millisecond,
		},
		Adapt: &edge.AdaptConfig{MaxThreshold: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-killed

	total := edges * batches * x.Dim(0)
	if res.Instances != total {
		t.Fatalf("fleet classified %d instances, fed %d", res.Instances, total)
	}
	if got := res.EdgeServed + res.CloudServed + res.ShedFallbacks; got != total {
		t.Fatalf("accounting identity broken: %d edge + %d cloud + %d shed = %d, want %d",
			res.EdgeServed, res.CloudServed, res.ShedFallbacks, got, total)
	}
	if res.CloudServed == 0 {
		t.Fatal("no cloud service at all — the outage took the whole fleet down")
	}
	if len(res.Replicas) != 3 {
		t.Fatalf("aggregated %d replicas, want 3", len(res.Replicas))
	}
	if res.Replicas[victim].Failures == 0 {
		t.Fatalf("killed replica shows no transport failures: %+v", res.Replicas)
	}
	for r, rt := range res.Replicas {
		if r != victim && rt.Offloads == 0 {
			t.Fatalf("surviving replica %d (%s) carried no offloads: %+v", r, rt.Addr, res.Replicas)
		}
	}
	// Per-edge modeled byte algebra: only admitted upload attempts are
	// billed — neither sheds, failovers nor the outage may leak into it.
	for _, er := range res.Edges {
		rep := er.Report
		want := int64(rep.RawUploads)*cost.ImageBytes + int64(rep.FeatureUploads)*cost.FeatureBytes
		if rep.BytesSent != want {
			t.Fatalf("edge %d modeled bytes %d != %d raw + %d feature uploads",
				er.Index, rep.BytesSent, rep.RawUploads, rep.FeatureUploads)
		}
	}
	t.Logf("kill-one soak: %d edges × %d batches in %v (%.0f img/s): %d edge / %d cloud / %d shed-fallback, %d cloud failures; replicas %+v",
		edges, batches, res.Elapsed.Round(time.Millisecond), res.ImagesPerSec,
		res.EdgeServed, res.CloudServed, res.ShedFallbacks, res.CloudFailures, res.Replicas)

	for r, srv := range servers {
		if r == victim {
			continue // already closed by the kill
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	checkNoGoroutineLeaks(t, goroutinesBefore)
}

// replicaOffloads reads one replica's offload counter from the router's
// stat table (0 if the address has no row yet).
func replicaOffloads(mc *edge.MultiClient, addr string) uint64 {
	var n uint64
	for _, st := range mc.ReplicaStats() {
		if st.Addr == addr {
			n += st.Offloads
		}
	}
	return n
}

// TestFleetMultiReplicaSoakJoinLeave is the live-membership soak: every edge
// starts on 2 of 3 shedding replicas, joins the third once its own router
// demonstrably carries traffic, and then REMOVES the first replica while
// batches are still in flight. All three servers stay up for the whole run,
// so unlike the kill-one soak the edge-vs-server books must agree EXACTLY:
// removal drains instead of aborting, no instance is lost, duplicated or
// failed, and the removed replica's historical counters survive in both the
// per-edge stat tables and the fleet aggregate.
func TestFleetMultiReplicaSoakJoinLeave(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	m, cls, x, cost := fleetFixture(t, 5)
	servers, addrs := startReplicas(t, 3, func(int) (*cloud.Server, error) {
		return cloud.NewServer(
			&SlowModel{Inner: cls, Delay: time.Millisecond},
			nil,
			cloud.WithShedding(cloud.ShedPolicy{MaxInFlight: 3, RetryAfter: 5 * time.Millisecond}),
		)
	})
	joinAddr, leaveAddr := addrs[2], addrs[0]

	edges, batches := 6, 30
	if testing.Short() {
		edges, batches = 4, 14
	}
	batches *= soakScale()

	dialCfg := edge.DialConfig{
		RequestTimeout: 2 * time.Second,
		RedialBackoff:  2 * time.Millisecond,
	}
	var joins, leaves atomic.Int64
	res, err := Run(Config{
		Addrs:   addrs[:2],
		Edges:   edges,
		Batches: batches,
		Net:     m,
		Policy:  core.Policy{Threshold: 0.25, UseCloud: true, CloudRetries: 2},
		Cost:    cost,
		Input:   x,
		Membership: func(i int, mc *edge.MultiClient, done <-chan struct{}) {
			waitFor := func(cond func() bool) bool {
				for !cond() {
					select {
					case <-done:
						return false
					case <-time.After(time.Millisecond):
					}
				}
				return true
			}
			// Join once the replica that will later leave has carried at
			// least one offload — membership changes land on a warmed-up,
			// mid-run fleet, and the departed row provably has history.
			if !waitFor(func() bool { return replicaOffloads(mc, leaveAddr) > 0 }) {
				t.Errorf("edge %d finished before replica %s carried an offload", i, leaveAddr)
				return
			}
			c, err := edge.DialCloud(joinAddr, dialCfg)
			if err != nil {
				t.Errorf("edge %d: dial joining replica: %v", i, err)
				return
			}
			if err := mc.AddReplica(c, joinAddr); err != nil {
				c.Close()
				t.Errorf("edge %d: join: %v", i, err)
				return
			}
			joins.Add(1)
			// Leave only after the newcomer demonstrably serves — the removal
			// happens while all three replicas are live and loaded.
			if !waitFor(func() bool { return replicaOffloads(mc, joinAddr) > 0 }) {
				t.Errorf("edge %d finished before the joined replica served", i)
				return
			}
			if err := mc.RemoveReplica(leaveAddr); err != nil {
				t.Errorf("edge %d: leave: %v", i, err)
				return
			}
			leaves.Add(1)
		},
		ClientConfig: dialCfg,
		Adapt:        &edge.AdaptConfig{MaxThreshold: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if joins.Load() != int64(edges) || leaves.Load() != int64(edges) {
		t.Fatalf("membership choreography incomplete: %d joins / %d leaves on %d edges",
			joins.Load(), leaves.Load(), edges)
	}

	total := edges * batches * x.Dim(0)
	if res.Instances != total {
		t.Fatalf("fleet classified %d instances, fed %d", res.Instances, total)
	}
	if got := res.EdgeServed + res.CloudServed + res.ShedFallbacks; got != total {
		t.Fatalf("accounting identity broken: %d edge + %d cloud + %d shed = %d, want %d",
			res.EdgeServed, res.CloudServed, res.ShedFallbacks, got, total)
	}
	if res.CloudServed == 0 {
		t.Fatal("no cloud service at all")
	}
	// Every server stayed up and removal drains, so there is no excuse for a
	// single transport failure — and the edge-side cloud exits must equal the
	// servers' served totals instance for instance.
	if res.CloudFailures != 0 {
		t.Fatalf("membership churn produced %d cloud failures on a healthy fleet", res.CloudFailures)
	}
	var served uint64
	for _, srv := range servers {
		served += srv.Stats().InstancesServed
	}
	if served != uint64(res.CloudServed) {
		t.Fatalf("servers served %d instances, edges counted %d cloud exits", served, res.CloudServed)
	}
	if len(res.Replicas) != 3 {
		t.Fatalf("aggregated %d replicas, want 3: %+v", len(res.Replicas), res.Replicas)
	}
	for _, rt := range res.Replicas {
		if rt.Failures != 0 {
			t.Fatalf("replica %s saw transport failures on a healthy fleet: %+v", rt.Addr, res.Replicas)
		}
		if rt.Offloads == 0 {
			t.Fatalf("replica %s carried no offloads across the whole fleet: %+v", rt.Addr, res.Replicas)
		}
	}
	// Satellite: the removed replica's history survives membership changes —
	// every edge's stat table still carries the drained replica's row, marked
	// removed, counters intact; the joined replica has a live row next to it.
	for _, er := range res.Edges {
		var sawRemoved, sawJoined bool
		for _, st := range er.Replicas {
			switch st.Addr {
			case leaveAddr:
				sawRemoved = true
				if !st.Removed {
					t.Fatalf("edge %d: departed replica not marked removed: %+v", er.Index, st)
				}
				if st.Offloads == 0 {
					t.Fatalf("edge %d: departed replica lost its history: %+v", er.Index, st)
				}
			case joinAddr:
				sawJoined = true
				if st.Removed {
					t.Fatalf("edge %d: joined replica marked removed: %+v", er.Index, st)
				}
			}
		}
		if !sawRemoved || !sawJoined {
			t.Fatalf("edge %d stat table misses membership rows (removed %v, joined %v): %+v",
				er.Index, sawRemoved, sawJoined, er.Replicas)
		}
	}
	t.Logf("join/leave soak: %d edges × %d batches in %v (%.0f img/s): %d edge / %d cloud / %d shed-fallback; replicas %+v",
		edges, batches, res.Elapsed.Round(time.Millisecond), res.ImagesPerSec,
		res.EdgeServed, res.CloudServed, res.ShedFallbacks, res.Replicas)

	for _, srv := range servers {
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	checkNoGoroutineLeaks(t, goroutinesBefore)
}
