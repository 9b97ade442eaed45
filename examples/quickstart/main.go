// Quickstart: build a MEANet, run the paper's distributed training pipeline
// (Algorithm 1), and classify with complexity-aware inference (Algorithm 2).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	meanet "github.com/meanet/meanet"
)

func main() {
	log.SetFlags(0)

	// 1. Data: a synthetic image-classification set with confusable class
	// groups (class-wise complexity) and noisy instances (instance-wise
	// complexity). SynthC100 is the CIFAR-100-like preset.
	synth, err := meanet.Generate(meanet.SynthC100(meanet.ScaleTiny, 42))
	if err != nil {
		log.Fatal(err)
	}
	classes := synth.Train.NumClasses
	fmt.Printf("dataset: %d classes, %d train / %d test images of %dx%dx%d\n",
		classes, synth.Train.N, synth.Test.N, synth.Train.C, synth.Train.H, synth.Train.W)

	// 2. Model: a small ResNet restructured into a model-A MEANet — the
	// first groups become the main block, the rest the extension block, and
	// a shallow adaptive block taps the raw input (paper Fig 4A).
	rng := rand.New(rand.NewSource(42))
	backbone, err := meanet.BuildResNet(rng, meanet.ResNetSpec{
		Name: "quickstart", InChannels: 3, StemChannels: 8,
		Channels: []int{8, 16, 32}, Blocks: []int{1, 1, 1}, Strides: []int{1, 2, 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	m, err := meanet.BuildMEANetA(rng, backbone, 2, classes)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Algorithm 1: pretrain the main block ("at the cloud"), rank classes
	// by validation precision, select the worst half as hard, and adapt the
	// extension + adaptive blocks on hard-class data with the main frozen.
	cfg := meanet.DefaultTrainConfig(10, 42)
	cfg.Progress = func(epoch int, loss float64) {
		if epoch%3 == 0 {
			fmt.Printf("  epoch %d loss %.3f\n", epoch, loss)
		}
	}
	fmt.Println("training (Algorithm 1)...")
	res, err := meanet.TrainDistributed(m, synth.Train, classes/2, 0.1, cfg, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hard classes: %v\n", res.HardClasses)
	fmt.Printf("cloud-offload threshold range: (%.3f, %.3f)\n", res.ThresholdLo, res.ThresholdHi)

	// 4. Algorithm 2, edge-only: easy predictions exit at the main block,
	// hard ones take the extension path, the more confident exit wins.
	rep, err := meanet.Evaluate(m, synth.Test, 32, meanet.Policy{UseCloud: false}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("edge-only accuracy: %.2f%% (hard classes %.2f%%, easy %.2f%%)\n",
		100*rep.Overall, 100*rep.HardClasses, 100*rep.EasyClasses)
	fmt.Printf("exits: main %d, extension %d\n",
		rep.ExitCounts[meanet.ExitMain], rep.ExitCounts[meanet.ExitExtension])

	// 5. Add a cloud: a deeper CNN answers the high-entropy ("complex")
	// instances. Here it runs in-process; see examples/distributed for the
	// real TCP path.
	cloudBackbone, err := meanet.BuildResNet(rng, meanet.ResNetSpec{
		Name: "cloud", InChannels: 3, StemChannels: 16,
		Channels: []int{16, 32, 64}, Blocks: []int{2, 2, 2}, Strides: []int{1, 2, 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	cloudModel := meanet.NewClassifier(rng, cloudBackbone, classes)
	if err := meanet.TrainClassifier(cloudModel, synth.Train, meanet.DefaultTrainConfig(10, 43)); err != nil {
		log.Fatal(err)
	}
	client := &meanet.InProcClient{Model: cloudModel}
	threshold := (res.ThresholdLo + res.ThresholdHi) / 2
	rep2, err := meanet.Evaluate(m, synth.Test, 32,
		meanet.Policy{Threshold: threshold, UseCloud: true},
		meanet.Offload(client, meanet.RepRaw))
	if err != nil {
		log.Fatal(err)
	}
	beta := float64(rep2.ExitCounts[meanet.ExitCloud]) / float64(rep2.N)
	fmt.Printf("edge-cloud accuracy: %.2f%% with %.1f%% of instances sent to the cloud\n",
		100*rep2.Overall, 100*beta)
}
