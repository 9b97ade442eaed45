// Command meanet-cloud runs the cloud AI server: it trains (or loads) the
// deep cloud CNN for a dataset preset and serves classify requests over TCP
// until interrupted.
//
// Usage:
//
//	meanet-cloud [-addr :9400] [-dataset c100|imagenet] [-scale tiny|small|full]
//	             [-seed N] [-epochs N] [-weights FILE] [-save FILE]
//	             [-batch N] [-linger DUR] [-tail] [-variant A|B]
//	             [-shed-queue N] [-shed-inflight N] [-shed-retry-after DUR]
//	             [-downstream host:port[,host:port...]]
//
// -batch enables server-side micro-batching: up to N concurrent classify
// requests (from any number of edge connections) are coalesced into one
// batched forward pass, waiting at most -linger (default 2ms) for the batch
// to fill. The collector covers raw-image requests and — when the server is
// built with a feature tail — partitioned-network feature requests, each in
// their own batches. Client-assembled batches, the edge runtime's default
// offload path, run as one forward pass either way. Predictions are bitwise
// identical to the unbatched path.
//
// -shed-queue and -shed-inflight enable admission control (load shedding):
// while the micro-batch collectors hold at least -shed-queue parked requests
// or at least -shed-inflight dispatches are in flight, inference requests are
// answered with a shed frame carrying the -shed-retry-after hint (default
// 50ms) instead of being parked — edges serve those instances themselves and
// hold further offloads for the hinted duration. Pings are never shed.
//
// -tail additionally serves the §III-C "sending features" mode: the command
// replays the edge's deterministic main-block pipeline (internal/deploy) for
// the given -variant, trains a small tail classifier over the resulting
// feature maps, and answers feature requests with it. The
// edge can then offload feature tensors (-offload features|auto) instead of
// raw pixels.
//
// Every -tail server is also a hop of a multi-hop partitioned deployment: it
// mounts the full serving chain (main block + tail) and answers source-routed
// activation requests by running whatever span of it each one's route
// assigns. The cut points travel with the request — a hop knows neither its position
// nor the cuts — so the edge (meanet-edge -cuts) decides the partitioning and
// an edge running -replan moves cuts live without any hop being
// reconfigured. A hop with -downstream (which implies -tail) forwards the
// rest of each route to the next hop; a hop without one is terminal. Hops
// still serve raw and feature uploads, so a chain hop doubles as an ordinary
// replica. Predictions through the chain are bitwise identical to the
// monolithic partitioned model.
//
// -downstream accepts a comma-separated address list: more than one address
// makes the next chain position a REPLICA SET routed exactly like the edge's
// -cloud list (edge.MultiClient: power-of-two-choices over piggybacked load ×
// measured RTT, capacity weighting, exclusion windows around shed or dead
// members), so the chain heals hop-locally while the edge keeps serving.
//
// The companion meanet-edge command, started with the same -dataset, -scale,
// -seed and -variant, generates the identical synthetic dataset and offloads
// its complex instances here.
//
// For a multi-replica cloud tier, start several meanet-cloud instances on
// distinct -addr ports (identical -dataset/-scale/-seed/-variant so every
// replica serves the same model) and hand the edge the full list:
// meanet-edge -cloud host:9400,host:9401. Each replica runs its own
// admission control; the edge routes around shed or dead replicas.
//
// On connect, the server answers the edge's MsgHello handshake with its
// capability frame: whether it serves the feature tail (-tail) and its
// micro-batch ceiling (-batch, 0 when unbatched). A heterogeneous fleet can
// therefore mix tail-equipped and raw-only replicas — edges skip tail-less
// replicas for feature uploads instead of failing. Replicas may also be
// added to or removed from a running edge (meanet-edge -admin) without
// restarting anything.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/deploy"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/models"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "meanet-cloud:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("meanet-cloud", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9400", "listen address")
	dataset := fs.String("dataset", "c100", "dataset preset: c100 or imagenet")
	scaleName := fs.String("scale", "small", "workload scale: tiny, small or full")
	seed := fs.Int64("seed", 1, "master random seed (must match the edge)")
	epochs := fs.Int("epochs", 0, "training epochs of the cloud CNN, or of the features tail under -tail/-downstream (0 = scale default; the replayed main block always trains the edge's default)")
	weights := fs.String("weights", "", "load pretrained cloud weights instead of training")
	save := fs.String("save", "", "save trained weights to this file")
	batch := fs.Int("batch", 0, "micro-batch size (0 = no batching)")
	linger := fs.Duration("linger", 2*time.Millisecond, "max wait for a micro-batch to fill")
	tailMode := fs.Bool("tail", false, "serve the features mode: train a partitioned-network tail over the edge main block")
	variant := fs.String("variant", "A", "edge MEANet variant the tail partitions (must match the edge)")
	shedQueue := fs.Int64("shed-queue", 0, "shed classify requests while the collector queue holds at least this many (0 = off)")
	shedInflight := fs.Int64("shed-inflight", 0, "shed classify requests while at least this many dispatches are in flight (0 = off)")
	shedHint := fs.Duration("shed-retry-after", 0, "retry-after hint carried in shed frames (0 = default 50ms)")
	downstreamAddr := fs.String("downstream", "", "next chain hop for relayed activations (implies -tail); a comma-separated list is a replica set; empty = terminal hop")
	if err := fs.Parse(args); err != nil {
		return err
	}
	downAddrs := edge.SplitAddrs(*downstreamAddr)
	shed := cloud.ShedPolicy{MaxQueue: *shedQueue, MaxInFlight: *shedInflight, RetryAfter: *shedHint}
	if *shedQueue < 0 || *shedInflight < 0 {
		return fmt.Errorf("negative shed limits (%d queue, %d inflight)", *shedQueue, *shedInflight)
	}
	if *shedQueue > 0 && *batch <= 0 {
		return fmt.Errorf("-shed-queue needs -batch: only the micro-batch collectors have a queue")
	}
	if *epochs < 0 {
		return fmt.Errorf("negative -epochs %d", *epochs)
	}
	if *batch < 0 {
		return fmt.Errorf("negative -batch %d (0 = no batching)", *batch)
	}
	if *linger < 0 {
		return fmt.Errorf("negative -linger %v", *linger)
	}
	scale, err := deploy.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	synth, err := deploy.GeneratePreset(*dataset, scale, *seed)
	if err != nil {
		return err
	}

	// Partitioned deployment: with -tail (or -downstream, which forwards
	// spans of the same model) the server's raw model is the composition
	// tail∘main of the replayed edge main block — raw and feature uploads
	// answer bitwise identically, which is what makes the edge's -offload
	// auto a pure communication trade. The standalone cloud CNN (and its
	// -weights/-save persistence) belongs to the non-partitioned deployment
	// only.
	if *tailMode || len(downAddrs) > 0 {
		if *weights != "" || *save != "" {
			return fmt.Errorf("-weights/-save persist the standalone cloud CNN and are incompatible with -tail/-downstream")
		}
		spec := deploy.EdgeSpec{
			Dataset: *dataset, Scale: scale, Seed: *seed, Variant: *variant,
			// The edge's recipe, not -epochs: the replayed main block must
			// stay bitwise equal to the edge's.
			Epochs: deploy.DefaultEpochs(scale),
			Progress: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "tail: "+format+"\n", args...)
			},
		}
		m, err := deploy.BuildEdgeNet(spec, synth.Train.NumClasses)
		if err != nil {
			return err
		}
		tm, err := deploy.TrainMain(spec, m, synth)
		if err != nil {
			return fmt.Errorf("replay edge main block: %w", err)
		}
		tail, err := deploy.TrainTail(m, tm.Train, *seed+900, cloudEpochs(*epochs, scale), spec.Progress)
		if err != nil {
			return fmt.Errorf("train features tail: %w", err)
		}
		raw := cloud.Partitioned(m.Main, tail)
		acc, err := evalModel(raw, synth.Test)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "partitioned model test accuracy: %.2f%%\n", 100*acc)

		// Chain hop: mount the full serving chain (the same deterministic
		// construction the edge and every other hop run), so relay frames
		// execute whatever span their route assigns here, and forward
		// downstream unless terminal. The raw/tail models stay mounted — a
		// hop doubles as a plain replica.
		cfg := cloud.StageConfig{Chain: deploy.ServingChain(m, tail)}
		stageDesc := fmt.Sprintf("terminal hop over the %d-unit serving chain", len(cfg.Chain))
		if len(downAddrs) > 0 {
			// More than one address is a replica set at the next chain
			// position, behind the edge's own router: the chain heals around
			// a dead or shedding member without the edge noticing.
			var down interface {
				cloud.Downstream
				Close() error
			}
			if len(downAddrs) == 1 {
				down, err = edge.DialCloud(downAddrs[0], edge.DialConfig{})
			} else {
				down, err = edge.DialMultiCloud(downAddrs, edge.DialConfig{}, edge.MultiConfig{})
			}
			if err != nil {
				return fmt.Errorf("dial downstream: %w", err)
			}
			defer down.Close()
			cfg.Downstream = down
			stageDesc = fmt.Sprintf("hop over the %d-unit serving chain, downstream %s", len(cfg.Chain), strings.Join(downAddrs, ","))
		}
		return serve(raw, tail, *addr, *dataset, synth.Train.NumClasses, *batch, *linger, shed, stageDesc, cloud.WithStage(cfg))
	}

	rng := rand.New(rand.NewSource(*seed + 500))
	groups := 3
	if *dataset == "imagenet" {
		groups = 4
	}
	backbone, err := models.BuildResNet(rng, models.ResNetCloud(groups))
	if err != nil {
		return err
	}
	cls := models.NewClassifier(rng, backbone, synth.Train.NumClasses)

	if *weights != "" {
		f, err := os.Open(*weights)
		if err != nil {
			return fmt.Errorf("open weights: %w", err)
		}
		defer f.Close()
		if err := models.LoadWeights(f, cls.Backbone, cls.Exit); err != nil {
			return fmt.Errorf("load weights: %w", err)
		}
		fmt.Fprintf(os.Stderr, "loaded cloud weights from %s\n", *weights)
	} else {
		e := cloudEpochs(*epochs, scale)
		cfg := core.DefaultTrainConfig(e, *seed+501)
		cfg.Progress = func(epoch int, loss float64) {
			fmt.Fprintf(os.Stderr, "cloud training epoch %d/%d loss %.4f\n", epoch+1, e, loss)
		}
		start := time.Now()
		if err := core.TrainClassifier(cls, synth.Train, cfg); err != nil {
			return fmt.Errorf("train cloud model: %w", err)
		}
		fmt.Fprintf(os.Stderr, "cloud model trained in %.1fs\n", time.Since(start).Seconds())
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return fmt.Errorf("create weights file: %w", err)
		}
		if err := models.SaveWeights(f, cls.Backbone, cls.Exit); err != nil {
			f.Close()
			return fmt.Errorf("save weights: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "saved cloud weights to %s\n", *save)
	}

	cm, err := core.EvaluateClassifier(cls, synth.Test, 64)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cloud model test accuracy: %.2f%%\n", 100*cm.Accuracy())
	return serve(cls, nil, *addr, *dataset, synth.Train.NumClasses, *batch, *linger, shed, "")
}

// serve runs the TCP server until interrupted and prints shutdown stats.
// stageDesc describes the server's chain role ("" = not a stage hop); extra
// carries the stage option when set.
func serve(raw cloud.Model, tail *cloud.Tail, addr, dataset string, classes, batch int, linger time.Duration, shed cloud.ShedPolicy, stageDesc string, extra ...cloud.Option) error {
	opts := extra
	if batch > 0 {
		opts = append(opts, cloud.WithBatching(cloud.BatchConfig{MaxBatch: batch, Linger: linger}))
	}
	shedding := shed.MaxQueue > 0 || shed.MaxInFlight > 0
	if shedding {
		opts = append(opts, cloud.WithShedding(shed))
	}
	srv, err := cloud.NewServer(raw, tail, opts...)
	if err != nil {
		return err
	}
	if err := srv.Listen(addr); err != nil {
		return err
	}
	mode := "unbatched"
	if batch > 0 {
		mode = fmt.Sprintf("micro-batch %d, linger %v", batch, linger)
	}
	if tail != nil {
		mode += ", partitioned features tail"
	}
	if stageDesc != "" {
		mode += ", " + stageDesc
	}
	if shedding {
		mode += fmt.Sprintf(", shedding at queue %d / in-flight %d", shed.MaxQueue, shed.MaxInFlight)
	}
	fmt.Printf("cloud AI serving on %s (dataset %s, %d classes, %s)\n",
		srv.Addr(), dataset, classes, mode)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "shutting down")
	if err := srv.Close(); err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "served %d requests (%d errors, %d conns, %d bytes in, %d out)\n",
		st.Requests, st.Errors, st.TotalConns, st.BytesIn, st.BytesOut)
	fmt.Fprintf(os.Stderr, "load at shutdown: %d in flight, %d queued (piggybacked to edges on every result)\n",
		st.InFlight, st.QueueDepth)
	if shedding {
		fmt.Fprintf(os.Stderr, "admission control: %d requests shed, %d instances served\n",
			st.Sheds, st.InstancesServed)
	}
	if st.Batches > 0 {
		fmt.Fprintf(os.Stderr, "micro-batching: %d requests over %d forwards (mean batch %.1f)\n",
			st.BatchedRequests, st.Batches, float64(st.BatchedRequests)/float64(st.Batches))
	}
	return nil
}

// evalModel measures top-1 accuracy of a serving model over a dataset.
func evalModel(m cloud.Model, ds *data.Dataset) (float64, error) {
	if ds.N == 0 {
		return 0, fmt.Errorf("empty test set")
	}
	correct := 0
	for start := 0; start < ds.N; start += 64 {
		end := start + 64
		if end > ds.N {
			end = ds.N
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		x, y := ds.Batch(idx)
		preds := m.Logits(x, false).ArgMaxRows()
		for i, p := range preds {
			if p == y[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(ds.N), nil
}

// cloudEpochs is how long the cloud trains its own model — the standalone
// CNN, or the features tail under -tail/-downstream: the -epochs value when
// set, else the scale default. The main-block replay under -tail never reads
// it: it trains deploy.DefaultEpochs so it stays bitwise equal to the edge's.
func cloudEpochs(flagEpochs int, scale data.Scale) int {
	if flagEpochs > 0 {
		return flagEpochs
	}
	switch scale {
	case data.ScaleTiny:
		return 6
	case data.ScaleFull:
		return 35
	default:
		return 22
	}
}
