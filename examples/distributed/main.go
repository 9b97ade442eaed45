// Distributed: the full edge-cloud system over real TCP sockets — a cloud
// AI server, an edge runtime with a shaped WiFi-like uplink, a threshold
// sweep (Fig 7) and energy accounting (Fig 8), plus a cloud-outage fallback
// demonstration.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	meanet "github.com/meanet/meanet"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/deploy"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/profile"
)

func main() {
	log.SetFlags(0)
	synth, err := data.Generate(data.SynthC100(data.ScaleTiny, 11))
	if err != nil {
		log.Fatal(err)
	}
	classes := synth.Train.NumClasses

	// Train the edge MEANet (Algorithm 1).
	rng := rand.New(rand.NewSource(11))
	backbone, err := models.BuildResNet(rng, models.ResNetEdgeC100(1))
	if err != nil {
		log.Fatal(err)
	}
	m, err := core.BuildMEANetA(rng, backbone, 2, classes)
	if err != nil {
		log.Fatal(err)
	}
	cfg := meanet.DefaultTrainConfig(10, 11)
	fmt.Println("training edge MEANet...")
	res, err := meanet.TrainDistributed(m, synth.Train, classes/2, 0.1, cfg, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Train the cloud AI (a deeper ResNet) and serve it over TCP.
	cloudBackbone, err := models.BuildResNet(rng, models.ResNetCloud(3))
	if err != nil {
		log.Fatal(err)
	}
	cloudModel := models.NewClassifier(rng, cloudBackbone, classes)
	fmt.Println("training cloud AI...")
	if err := meanet.TrainClassifier(cloudModel, synth.Train, meanet.DefaultTrainConfig(10, 12)); err != nil {
		log.Fatal(err)
	}
	server, err := meanet.NewCloudServer(cloudModel, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := server.Listen("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer server.Close()
	fmt.Printf("cloud AI serving on %s\n\n", server.Addr())

	// Dial through a simulated WiFi uplink (20ms latency, 18.88 Mb/s — the
	// paper's measured average upload speed).
	client, err := meanet.DialCloud(server.Addr().String(), meanet.DialConfig{
		Link: netsim.Link{Latency: 20 * time.Millisecond, Mbps: 18.88},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Energy accounting from the profiler + the paper's cost models.
	inShape := profile.Shape{C: synth.Train.C, H: synth.Train.H, W: synth.Train.W}
	cost, err := deploy.EdgeCost(deploy.EdgeSpec{Dataset: "c100"}, m, inShape)
	if err != nil {
		log.Fatal(err)
	}

	// Threshold sweep over the real socket (Fig 7 / Fig 8 protocol).
	fmt.Println("threshold sweep over TCP (test set):")
	fmt.Println("  threshold | accuracy | sent to cloud | edge energy (compute+comm)")
	for _, th := range []float64{res.ThresholdHi, (res.ThresholdLo + res.ThresholdHi) / 2, res.ThresholdLo} {
		rt, err := meanet.NewRuntime(m, meanet.Policy{Threshold: th, UseCloud: true}, client, cost)
		if err != nil {
			log.Fatal(err)
		}
		correct, err := deploy.Stream(rt, synth.Test, 32)
		if err != nil {
			log.Fatal(err)
		}
		rep := rt.Report()
		fmt.Printf("  %9.3f | %7.2f%% | %12.1f%% | %.4f J + %.4f J\n",
			th, 100*float64(correct)/float64(rep.N), 100*rep.CloudFraction(),
			rep.Energy.ComputeJ, rep.Energy.CommJ)
	}

	// Failure injection: the cloud goes away mid-stream; the edge falls back
	// to local inference and keeps serving.
	fmt.Println("\nsimulating cloud outage:")
	if err := server.Close(); err != nil {
		log.Fatal(err)
	}
	rt, err := meanet.NewRuntime(m, meanet.Policy{Threshold: 0, UseCloud: true}, client, cost)
	if err != nil {
		log.Fatal(err)
	}
	x, y := synth.Test.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
	decisions, err := rt.Classify(x)
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for i, d := range decisions {
		if d.Pred == y[i] {
			correct++
		}
	}
	rep := rt.Report()
	fmt.Printf("  %d instances, %d cloud failures, all classified at the edge (%d correct)\n",
		rep.N, rep.CloudFailures, correct)
	fmt.Printf("  exits: main %d, extension %d, cloud %d\n",
		rep.Exits[meanet.ExitMain], rep.Exits[meanet.ExitExtension], rep.Exits[meanet.ExitCloud])
}
