// Command meanet-edge runs the edge side of the distributed system: it
// trains a MEANet with the complexity-aware pipeline (Algorithm 1), connects
// to a meanet-cloud server, streams the test set through Algorithm 2, and
// reports accuracy, exit distribution and edge-side energy.
//
// Usage:
//
//	meanet-edge [-cloud host1:9400,host2:9401,...] [-dataset c100|imagenet]
//	            [-scale tiny|small|full] [-seed N] [-threshold T]
//	            [-variant A|B] [-latency 10ms] [-mbps 18.88] [-batch N]
//	            [-offload raw|features|auto] [-retries N]
//	            [-latency-budget 20ms] [-adapt-min-samples N]
//	            [-admin host:port] [-cuts C1,C2,...]
//	            [-replan] [-replan-hysteresis F] [-chain-fallback host:port]
//	            [-plan -plan-rates R0,R1,... -plan-links M@L,...]
//
// Start meanet-cloud first with the same -dataset, -scale, -seed and
// -variant so both ends agree on the synthetic dataset, class count and —
// for the features mode — the partitioned main block. With -cloud ""
// (empty) the edge runs standalone.
//
// Cloud offload is batched: within each -batch sized inference batch, every
// complex (high-entropy) instance is uploaded in ONE batched round trip
// instead of one round trip per instance. -offload selects the upload
// representation: raw pixels, main-block feature tensors (requires a
// tail-equipped server, see meanet-cloud -tail), or auto, which compares
// the modeled bytes/energy of the two and picks the cheaper per batch.
// A failed upload is re-offloaded -retries times before its instances fall
// back to the edge decision.
//
// With -latency-budget the adaptation closes the loop on LIVE link
// estimates: the TCP client measures uplink bandwidth and cloud turnaround
// on every round trip (and receives the server's queue depth piggybacked on
// replies), auto mode prefers raw uploads while they fit the budget
// and falls back to the compact feature representation when the measured
// link no longer affords them, and the entropy threshold is re-tuned after
// every batch — up when observed cloud latency blows the budget, down when
// there is headroom. A broken connection is redialed with backoff instead
// of bricking the client.
//
// A cloud running admission control (meanet-cloud -shed-queue/-shed-inflight)
// may answer offloads with shed frames: those instances fall back to the
// edge decision immediately (no retries burned, no upload charged), further
// offloads are held for the server's retry-after hint, and the entropy
// threshold steps up so fewer instances qualify — the report's "cloud sheds"
// line counts both events and fallbacks.
//
// -cloud accepts a comma-separated list of replica addresses (start one
// meanet-cloud per address, same -dataset/-scale/-seed/-variant). The edge
// then keeps a pipelined connection to every replica and routes each offload
// batch by power-of-two-choices over piggybacked load × measured link RTT
// (edge.MultiClient): a shed from one replica fails over to the next open
// one before any edge fallback, a dead replica is excluded temporarily while
// its connection redials in the background, and the final report prints
// per-replica offload/shed/failure counts plus the capability matrix each
// replica advertised in its MsgHello handshake (tail-capable, batch limit;
// "caps unknown" for legacy servers, which are routed optimistically).
//
// -cuts joins a multi-hop partitioned deployment: the serving chain is cut
// at the given points — one per cloud hop; the hops (meanet-cloud -tail
// [-downstream ...]) mount the whole chain and learn their span from each
// frame's route, so only the edge is told the cuts — the edge runs stage 0,
// the main-block units before the first cut, locally, and offloaded
// instances relay stage activations through the chain instead of raw
// pixels. Requires exactly one -cloud address (the first hop) and -offload
// raw; predictions are bitwise identical to the single-hop deployment. Before streaming, the whole chain
// is probed end to end — a dead mid-hop is reported with its hop index
// instead of surfacing as a mid-run relay failure. Flag combinations are
// validated before any training, so a bad invocation fails in milliseconds.
//
// -chain-fallback arms the chain's degraded mode: when a relay fails or a
// hop sheds, the ORIGINAL raw batch ships to the named monolithic replica
// in one direct round trip instead of erroring to the edge decision, and
// the following batches go straight there until the chain's exclusion
// window (250ms, or the shed's retry-after hint) lapses. The report's
// "chain paths" line partitions instances exactly between the chain, the
// fallback and chain failures.
//
// -replan turns -cuts into a starting point: the client feeds its measured
// link estimates and per-hop service telemetry to the placement solver
// periodically, and when a re-solved placement beats the current cuts by
// more than -replan-hysteresis (default 0.15) the cuts move — new frames
// take the new route while in-flight frames drain on the old one, so no
// frame is dropped and predictions stay bitwise identical across the
// switch.
//
// -plan runs the placement solver instead of serving: given per-device
// compute rates (-plan-rates, MACs/s, first device is the edge) and the
// links between consecutive devices (-plan-links, "Mbps@latency" per hop),
// it prints the throughput-maximizing cut chain — the -cuts value to start
// the edge with — next to the all-edge and direct-offload predictions, then
// exits without training or serving.
//
// -admin (multi-replica runs only) opens a line-based TCP control socket for
// live membership while the test set streams: "add host:port" dials a new
// replica with the run's transport settings and joins it to the router,
// "remove host:port" retires one — draining its in-flight batches, never
// aborting them — and "list" prints the live per-replica table. One command
// per line, one "ok"/"err" reply per command (try it with nc).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/deploy"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/energy"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/profile"
	"github.com/meanet/meanet/internal/tensor"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "meanet-edge:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("meanet-edge", flag.ContinueOnError)
	cloudAddr := fs.String("cloud", "127.0.0.1:9400", "comma-separated cloud replica addresses (empty = edge only)")
	dataset := fs.String("dataset", "c100", "dataset preset: c100 or imagenet")
	scaleName := fs.String("scale", "small", "workload scale: tiny, small or full")
	seed := fs.Int64("seed", 1, "master random seed (must match the cloud)")
	threshold := fs.Float64("threshold", -1, "entropy threshold for cloud offload (-1 = validation midpoint)")
	variant := fs.String("variant", "A", "MEANet variant: A (split backbone) or B (full backbone + extension)")
	latency := fs.Duration("latency", 0, "simulated uplink latency")
	mbps := fs.Float64("mbps", 0, "simulated uplink bandwidth (0 = unshaped)")
	batch := fs.Int("batch", 64, "inference batch size (complex instances of a batch share one cloud round trip)")
	offload := fs.String("offload", "raw", "upload representation: raw, features or auto (cheaper of the two)")
	retries := fs.Int("retries", 1, "re-offload attempts for instances whose cloud call failed")
	budget := fs.Duration("latency-budget", 0, "per-offload cloud latency budget for closed-loop adaptation (0 = off)")
	minSamples := fs.Int("adapt-min-samples", 0, "round trips before live link estimates drive adaptation (0 = default 8)")
	adminAddr := fs.String("admin", "", "listen address for the membership control socket: add/remove/list replicas mid-run (multi-replica only)")
	cutsFlag := fs.String("cuts", "", "multi-hop partitioning: serving-chain cut points; the edge runs the units before the first cut and relays activations (single -cloud address, -offload raw)")
	replan := fs.Bool("replan", false, "live re-placement: move the cuts when measured telemetry finds a better placement (with -cuts)")
	replanHyst := fs.Float64("replan-hysteresis", 0.15, "fractional modeled-throughput margin a re-solved placement must beat the current cuts by before moving (with -replan)")
	chainFallback := fs.String("chain-fallback", "", "monolithic replica address for the chain's degraded mode: whole raw batches ship there when a hop fails or sheds (with -cuts)")
	plan := fs.Bool("plan", false, "run the placement solver over the serving chain and exit (needs -plan-rates and -plan-links)")
	planRates := fs.String("plan-rates", "", "per-device compute rates in MACs/s, comma-separated, first device is the edge (with -plan)")
	planLinks := fs.String("plan-links", "", "per-hop links as Mbps@latency (e.g. 7@1ms,200@500us), comma-separated (with -plan)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Fail fast on bad flags and illegal combinations: every check up to
	// training reads only the flags (and the untrained network's geometry),
	// so a bad invocation dies in milliseconds instead of after minutes of
	// training. Each error names its flag.
	if *batch < 1 {
		return fmt.Errorf("-batch %d, want ≥ 1", *batch)
	}
	if *retries < 0 {
		return fmt.Errorf("-retries %d, want ≥ 0", *retries)
	}
	mode, err := edge.ParseOffloadMode(*offload)
	if err != nil {
		return fmt.Errorf("-offload: %w", err)
	}
	scale, err := deploy.ParseScale(*scaleName)
	if err != nil {
		return fmt.Errorf("-scale: %w", err)
	}
	if err := (netsim.Link{Latency: *latency}).Validate(); err != nil {
		return fmt.Errorf("-latency: %w", err)
	}
	if err := (netsim.Link{Mbps: *mbps}).Validate(); err != nil {
		return fmt.Errorf("-mbps: %w", err)
	}
	if *budget < 0 {
		return fmt.Errorf("-latency-budget %v, want ≥ 0 (0 = off)", *budget)
	}
	if *minSamples < 0 {
		return fmt.Errorf("-adapt-min-samples %d, want ≥ 0 (0 = default 8)", *minSamples)
	}
	addrs := edge.SplitAddrs(*cloudAddr)
	var cuts []core.CutPoint
	if *cutsFlag != "" {
		if len(addrs) != 1 {
			return fmt.Errorf("-cuts needs exactly one -cloud address (the first stage hop), got %d", len(addrs))
		}
		if mode != edge.OffloadRaw {
			return fmt.Errorf("-cuts relays stage activations through the chain; only -offload raw applies")
		}
		if cuts, err = deploy.ParseCuts(*cutsFlag); err != nil {
			return fmt.Errorf("-cuts: %w", err)
		}
	}
	if *replan && *cutsFlag == "" {
		return fmt.Errorf("-replan moves the cut chain live; it needs -cuts to start from")
	}
	if *replanHyst <= 0 {
		return fmt.Errorf("-replan-hysteresis %g, want > 0", *replanHyst)
	}
	if *chainFallback != "" && *cutsFlag == "" {
		return fmt.Errorf("-chain-fallback arms the chain's degraded mode; it needs -cuts")
	}
	if *adminAddr != "" && len(addrs) < 2 {
		return fmt.Errorf("-admin needs a multi-replica run (-cloud with ≥2 addresses)")
	}
	if !*plan && (*planRates != "" || *planLinks != "") {
		return fmt.Errorf("-plan-rates/-plan-links only apply with -plan")
	}

	synth, err := deploy.GeneratePreset(*dataset, scale, *seed)
	if err != nil {
		return fmt.Errorf("-dataset: %w", err)
	}
	classes := synth.Train.NumClasses

	// Build and train the edge network: the deterministic main-block half
	// runs through the shared deploy pipeline (the cloud replays the same
	// pipeline for its features tail), the edge blocks stay local.
	spec := deploy.EdgeSpec{
		Dataset: *dataset, Scale: scale, Seed: *seed, Variant: *variant,
		Epochs:   deploy.DefaultEpochs(scale),
		Progress: progressf,
	}
	m, err := deploy.BuildEdgeNet(spec, classes)
	if err != nil {
		return fmt.Errorf("-variant: %w", err)
	}

	// Planning mode: the solver only reads the chain's layer geometry, so it
	// runs on the untrained networks and exits before any training.
	if *plan {
		return planPlacement(m, synth, *planRates, *planLinks)
	}
	flat := core.FlattenChain(m.Main)
	if len(cuts) > 0 && int(cuts[0]) > len(flat) {
		return fmt.Errorf("-cuts: first cut %d is past the edge main block (%d units): the edge can only run main-block units locally",
			cuts[0], len(flat))
	}

	start := time.Now()
	tm, err := deploy.TrainEdge(spec, m, synth)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "edge training done in %.1fs; hard classes: %v\n",
		time.Since(start).Seconds(), m.Dict.FromHard)

	// Threshold: validation midpoint unless overridden.
	th := *threshold
	if th < 0 {
		th = tm.Entropy.ThresholdMidpoint()
	}
	lo, hi, _ := tm.Entropy.ThresholdRange()
	fmt.Fprintf(os.Stderr, "entropy means (val): correct %.3f, wrong %.3f; using threshold %.3f\n", lo, hi, th)

	// Cloud transport: one pipelined connection per replica address, routed
	// by edge.MultiClient when there is more than one.
	var client cloudConn
	var mc *edge.MultiClient
	var cc *edge.ChainClient
	useCloud := len(addrs) > 0
	link := netsim.Link{Latency: *latency, Mbps: *mbps}
	if useCloud {
		dcfg := edge.DialConfig{Link: link}
		var err error
		if len(addrs) == 1 {
			client, err = edge.DialCloud(addrs[0], dcfg)
		} else {
			mc, err = edge.DialMultiCloud(addrs, dcfg, edge.MultiConfig{})
			client = mc
		}
		if err != nil {
			return fmt.Errorf("dial cloud: %w", err)
		}
		defer client.Close()
		if err := client.Ping(); err != nil {
			return fmt.Errorf("cloud ping: %w", err)
		}
		fmt.Fprintf(os.Stderr, "connected to %d cloud replica(s): %s\n", len(addrs), strings.Join(addrs, ", "))
	}

	// Multi-hop partitioning: wrap the transport in a chain client running
	// the edge's own stage of the cut chain; offloads relay activations
	// through the stage servers instead of shipping raw pixels.
	if *cutsFlag != "" {
		// The client needs the FULL chain geometry — main block plus tail —
		// to validate the route and, with -replan, to price every legal
		// placement. The tail is built untrained: only its layer geometry
		// enters the cost model, and MaxLocal pins the edge's span inside the
		// main block, whose weights are the only ones it holds.
		cls, err := deploy.BuildTailNet(rand.New(rand.NewSource(1)), m.MainOutChannels(), classes)
		if err != nil {
			return err
		}
		cc, err = edge.NewRoutedChainClient(client, edge.ChainConfig{
			Chain:    deploy.ServingChain(m, &cloud.Tail{Body: cls.Backbone, Exit: cls.Exit}),
			Cuts:     cuts,
			MaxLocal: len(flat),
			Replan: edge.ReplanConfig{
				Enabled:    *replan,
				Hysteresis: *replanHyst,
				In:         profile.Shape{C: synth.Train.C, H: synth.Train.H, W: synth.Train.W},
			},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "multi-hop chain: edge runs units [0,%d) locally, relaying to %s (cuts %v)\n",
			cuts[0], addrs[0], cuts)
		if *replan {
			fmt.Fprintf(os.Stderr, "live re-placement on: cuts move beyond +%.0f%% modeled gain\n", 100**replanHyst)
		}
		if *chainFallback != "" {
			direct, err := edge.DialCloud(*chainFallback, edge.DialConfig{Link: link})
			if err != nil {
				return fmt.Errorf("dial chain fallback %s: %w", *chainFallback, err)
			}
			defer direct.Close()
			cc.SetDirect(direct)
			fmt.Fprintf(os.Stderr, "chain degraded mode armed: raw batches fall back to %s when the chain fails\n", *chainFallback)
		}
		// Probe the WHOLE chain before streaming: the dial-time ping only
		// proves the first hop answers, while a mis-started chain (a dead
		// downstream) surfaces here with the failing hop named in the error.
		hops, err := cc.ProbeChain()
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "chain probe: %d cloud hop(s) healthy end to end\n", hops)
		client = cc
	}
	if *adminAddr != "" {
		ln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return fmt.Errorf("admin listen: %w", err)
		}
		adminDone := make(chan struct{})
		go func() { defer close(adminDone); serveAdmin(ln, mc) }()
		// Registered after the router's Close defer, so (LIFO) the admin
		// loop — including every accepted connection — is fully stopped
		// before the router it commands is closed.
		defer func() { ln.Close(); <-adminDone }()
		fmt.Fprintf(os.Stderr, "admin control socket on %s (add/remove/list)\n", ln.Addr())
	}

	// Energy model. FeatureBytes comes from the main block's actual output
	// geometry, probed with one dummy forward.
	inShape := profile.Shape{C: synth.Train.C, H: synth.Train.H, W: synth.Train.W}
	prof, err := profile.ProfileMEANet(m, inShape, 0)
	if err != nil {
		return err
	}
	compute := energy.EdgeGPUCIFAR()
	if *dataset == "imagenet" {
		compute = energy.EdgeGPUImageNet()
	}
	feat, _ := m.MainForward(tensor.Randn(rand.New(rand.NewSource(1)), 1, 1, inShape.C, inShape.H, inShape.W), false)
	cost := &edge.CostParams{
		MainMACs:     prof.Fixed.MACs,
		ExtMACs:      prof.Trained.MACs,
		Compute:      compute,
		WiFi:         energy.DefaultWiFi(),
		ImageBytes:   energy.RawImageBytes(inShape.H, inShape.W, inShape.C),
		FeatureBytes: energy.FeatureBytes(int64(feat.Numel())),
		// The wire ships float32 tensors (protocol.EncodeTensor), 4× the
		// 8-bit modeled image; live latency predictions must use this.
		WireImageBytes: 4 * int64(inShape.C) * int64(inShape.H) * int64(inShape.W),
	}

	rt, err := edge.NewRuntime(m, core.Policy{Threshold: th, UseCloud: useCloud, CloudRetries: *retries}, client, cost)
	if err != nil {
		return err
	}
	if err := rt.SetOffloadMode(mode); err != nil {
		return err
	}
	// The sample gate applies whenever live estimates drive decisions (auto
	// mode uses them with or without a budget), so it is configured
	// independently of -latency-budget.
	if *minSamples > 0 {
		rt.SetAdaptConfig(edge.AdaptConfig{MinSamples: *minSamples})
	}
	if *budget > 0 {
		rt.SetLatencyBudget(*budget)
		fmt.Fprintf(os.Stderr, "closed-loop adaptation on: latency budget %v\n", *budget)
	}
	fmt.Fprintf(os.Stderr, "offload mode %s (image %dB, features %dB per instance)\n",
		mode, cost.ImageBytes, cost.FeatureBytes)

	// Stream the test set; each batch's complex instances go to the cloud in
	// one round trip.
	correct := 0
	streamStart := time.Now()
	for startIdx := 0; startIdx < synth.Test.N; startIdx += *batch {
		end := startIdx + *batch
		if end > synth.Test.N {
			end = synth.Test.N
		}
		idx := make([]int, end-startIdx)
		for i := range idx {
			idx[i] = startIdx + i
		}
		x, y := synth.Test.Batch(idx)
		decisions, err := rt.Classify(x)
		if err != nil {
			return err
		}
		for i, d := range decisions {
			if d.Pred == y[i] {
				correct++
			}
		}
	}
	elapsed := time.Since(streamStart)

	rep := rt.Report()
	fmt.Printf("instances:        %d in %.1fs (%.0f inst/s)\n",
		rep.N, elapsed.Seconds(), float64(rep.N)/elapsed.Seconds())
	fmt.Printf("accuracy:         %.2f%%\n", 100*float64(correct)/float64(rep.N))
	fmt.Printf("exits:            main %d, extension %d, cloud %d (beta %.1f%%)\n",
		rep.Exits[core.ExitMain], rep.Exits[core.ExitExtension], rep.Exits[core.ExitCloud],
		100*rep.CloudFraction())
	fmt.Printf("cloud failures:   %d\n", rep.CloudFailures)
	if useCloud {
		fmt.Printf("cloud sheds:      %d events, %d instances fell back to the edge (no upload charged)\n",
			rep.ShedEvents, rep.ShedFallbacks)
	}
	fmt.Printf("uploads:          %d raw, %d feature (mode %s)\n",
		rep.RawUploads, rep.FeatureUploads, mode)
	fmt.Printf("bytes uploaded:   %d\n", rep.BytesSent)
	fmt.Printf("edge energy:      %.3f J compute + %.3f J comm = %.3f J\n",
		rep.Energy.ComputeJ, rep.Energy.CommJ, rep.Energy.TotalJ())
	fmt.Printf("modeled latency:  %v compute + %v upload\n",
		rep.LatencyCompute.Round(time.Microsecond), rep.LatencyComm.Round(time.Microsecond))
	if *budget > 0 {
		fmt.Printf("adaptation:       threshold %.3f (started %.3f), %d representation flips\n",
			rep.Threshold, th, rep.RepFlips)
	}
	if cc != nil {
		cs := cc.ChainStats()
		fmt.Printf("chain paths:      %d instances through the chain, %d via direct fallback, %d chain failures, %d direct failures\n",
			cs.ChainInstances, cs.FallbackInstances, cs.ChainFailures, cs.DirectFailures)
		if cs.Cuts != nil {
			fmt.Printf("chain placement:  cuts %v after %d live move(s)\n", cs.Cuts, cs.CutMoves)
		}
	}
	if useCloud {
		est := client.LinkEstimate()
		fmt.Printf("link estimate:    rtt %v, %.2f Mbps over %d samples\n",
			est.RTT.Round(time.Microsecond), est.Mbps, est.Samples)
		if load, ok := client.CloudLoad(); ok {
			fmt.Printf("cloud load:       queue %d, active %d (last piggybacked status)\n",
				load.QueueDepth, load.Active)
		}
	}
	if mc != nil {
		for _, rs := range mc.ReplicaStats() {
			state := ""
			if rs.Excluded {
				state += " (excluded)"
			}
			if rs.Removed {
				state += " (removed)"
			}
			fmt.Printf("replica %-22s %d offloads, %d sheds, %d failures, %d wire bytes, %s%s\n",
				rs.Addr+":", rs.Offloads, rs.Sheds, rs.Failures, rs.BytesSent, capsString(rs), state)
		}
	}
	return nil
}

// cloudConn is what run holds of its dialed cloud tier — a TCPClient, a
// MultiClient or a ChainClient: the runtime's classify surface plus the
// transport's health probe and live signals.
type cloudConn interface {
	edge.CloudClient
	edge.Transport
}

// serveAdmin accepts membership control connections until the listener
// closes, then closes every connection still open and waits for its
// handlers — so the caller knows no command can still reach the router.
// The wire format is one command line in ("add <addr>", "remove <addr>",
// "list"), one "ok"/"err" reply out.
func serveAdmin(ln net.Listener, mc *edge.MultiClient) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
	)
	for {
		conn, err := ln.Accept()
		if err != nil {
			break
		}
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer func() {
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
				conn.Close()
			}()
			sc := bufio.NewScanner(conn)
			for sc.Scan() {
				if _, err := fmt.Fprintln(conn, adminReply(mc, sc.Text())); err != nil {
					return
				}
			}
		}(conn)
	}
	mu.Lock()
	for conn := range conns {
		conn.Close()
	}
	mu.Unlock()
	wg.Wait()
}

// adminReply executes one control command against the replica router.
func adminReply(mc *edge.MultiClient, line string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "err empty command (want add <addr>, remove <addr> or list)"
	}
	switch fields[0] {
	case "add":
		if len(fields) != 2 {
			return "err usage: add <addr>"
		}
		if err := mc.AddReplicaAddr(fields[1]); err != nil {
			return "err " + err.Error()
		}
		return "ok added " + fields[1]
	case "remove":
		if len(fields) != 2 {
			return "err usage: remove <addr>"
		}
		if err := mc.RemoveReplica(fields[1]); err != nil {
			return "err " + err.Error()
		}
		return "ok removing " + fields[1] + " (drains in-flight calls, history kept)"
	case "list":
		var sb strings.Builder
		for _, rs := range mc.ReplicaStats() {
			state := ""
			if rs.Excluded {
				state += " excluded"
			}
			if rs.Removed {
				state += " removed"
			}
			fmt.Fprintf(&sb, "replica %s: %d offloads, %d sheds, %d failures, %s%s\n",
				rs.Addr, rs.Offloads, rs.Sheds, rs.Failures, capsString(rs), state)
		}
		return sb.String() + "ok"
	default:
		return "err unknown command " + fields[0] + " (want add <addr>, remove <addr> or list)"
	}
}

// capsString renders the capability matrix a replica advertised in its
// MsgHello handshake for the report and the admin list.
func capsString(rs edge.ReplicaStats) string {
	if !rs.CapsKnown {
		return "caps unknown"
	}
	tail := "no tail"
	if rs.TailCapable {
		tail = "tail"
	}
	return fmt.Sprintf("%s, max batch %d", tail, rs.MaxBatch)
}

// planPlacement runs the placement solver over the untrained serving chain
// and prints the throughput-maximizing cut chain next to the all-edge and
// direct-offload predictions.
func planPlacement(m *core.MEANet, synth *data.Synth, ratesFlag, linksFlag string) error {
	if ratesFlag == "" || linksFlag == "" {
		return fmt.Errorf("-plan needs -plan-rates (MACs/s per device) and -plan-links (Mbps@latency per hop)")
	}
	devices, err := parseRates(ratesFlag)
	if err != nil {
		return err
	}
	links, err := parseLinks(linksFlag)
	if err != nil {
		return err
	}
	// The untrained tail has the deployment's exact geometry; weights do not
	// enter the cost model.
	cls, err := deploy.BuildTailNet(rand.New(rand.NewSource(1)), m.MainOutChannels(), synth.Train.NumClasses)
	if err != nil {
		return err
	}
	tail := &cloud.Tail{Body: cls.Backbone, Exit: cls.Exit}
	chain := deploy.ServingChain(m, tail)
	in := profile.Shape{C: synth.Train.C, H: synth.Train.H, W: synth.Train.W}

	pipe, err := profile.PlacePipeline(chain, in, devices, links)
	if err != nil {
		return err
	}
	local, err := profile.LocalPlacement(chain, in, devices[0])
	if err != nil {
		return err
	}
	cutStrs := make([]string, len(pipe.Cuts))
	for i, c := range pipe.Cuts {
		cutStrs[i] = fmt.Sprint(int(c))
	}
	fmt.Printf("placement over the %d-unit serving chain across %d device(s):\n", len(chain), len(devices))
	fmt.Printf("  pipeline:  %.1f images/s predicted, cuts %s (bottleneck: %s)\n",
		pipe.Throughput, strings.Join(cutStrs, ","), pipe.Bottleneck)
	fmt.Printf("  all-edge:  %.1f images/s predicted\n", local.Throughput)
	if len(devices) >= 2 {
		direct, err := profile.DirectPlacement(chain, in, links[0], devices[0], devices[len(devices)-1])
		if err != nil {
			return err
		}
		fmt.Printf("  direct:    %.1f images/s predicted (raw upload, whole chain on %s)\n",
			direct.Throughput, devices[len(devices)-1].Name)
	}
	fmt.Printf("stage plan:\n")
	for i, st := range pipe.Stages {
		fmt.Printf("  stage %d on %-8s units [%d,%d)  %8.2f MMACs  compute %6.2fms  transfer %6.2fms  %d wire bytes\n",
			i, st.Device, st.From, st.To, float64(st.Cost.MACs)/1e6,
			1000*st.ComputeSec, 1000*st.TransferSec, st.WireBytes)
	}
	if len(pipe.Cuts) > 0 {
		fmt.Printf("deploy with: meanet-edge -cuts %s over a chain of %d meanet-cloud -tail hop(s), each but the last with -downstream\n",
			strings.Join(cutStrs, ","), len(pipe.Cuts))
	}
	return nil
}

// parseRates parses the -plan-rates device list: MACs/s per device, first
// device is the edge.
func parseRates(s string) ([]profile.Device, error) {
	var devices []profile.Device
	for i, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -plan-rates entry %q: %w", part, err)
		}
		name := fmt.Sprintf("hop%d", i)
		if i == 0 {
			name = "edge"
		}
		devices = append(devices, profile.Device{Name: name, MACsPerSec: v})
	}
	return devices, nil
}

// parseLinks parses the -plan-links hop list: each entry is Mbps@latency
// ("7@1ms"), ordered edge→hop1, hop1→hop2, ...
func parseLinks(s string) ([]netsim.Link, error) {
	var links []netsim.Link
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		mbpsStr, latStr, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("bad -plan-links entry %q (want Mbps@latency, e.g. 7@1ms)", part)
		}
		mbps, err := strconv.ParseFloat(mbpsStr, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -plan-links bandwidth %q: %w", mbpsStr, err)
		}
		lat, err := time.ParseDuration(latStr)
		if err != nil {
			return nil, fmt.Errorf("bad -plan-links latency %q: %w", latStr, err)
		}
		link := netsim.Link{Latency: lat, Mbps: mbps}
		if err := link.Validate(); err != nil {
			return nil, fmt.Errorf("bad -plan-links entry %q: %w", part, err)
		}
		links = append(links, link)
	}
	return links, nil
}

func progressf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
