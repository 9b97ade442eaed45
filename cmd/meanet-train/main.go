// Command meanet-train runs the complexity-aware training pipeline
// (Algorithm 1) for an edge MEANet and saves the resulting weights, so that
// deployments can load a pretrained model instead of retraining.
//
// Usage:
//
//	meanet-train [-dataset c100|imagenet] [-scale tiny|small|full] [-seed N]
//	             [-variant A|B] [-epochs N] [-out meanet.weights]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/deploy"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "meanet-train:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("meanet-train", flag.ContinueOnError)
	dataset := fs.String("dataset", "c100", "dataset preset: c100 or imagenet")
	scaleName := fs.String("scale", "small", "workload scale: tiny, small or full")
	seed := fs.Int64("seed", 1, "master random seed")
	variant := fs.String("variant", "A", "MEANet variant: A or B")
	epochs := fs.Int("epochs", 0, "training epochs per phase (0 = scale default)")
	out := fs.String("out", "meanet.weights", "output weights file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale, err := deploy.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	synth, err := deploy.GeneratePreset(*dataset, scale, *seed)
	if err != nil {
		return err
	}
	spec := deploy.EdgeSpec{
		Dataset: *dataset, Scale: scale, Seed: *seed, Variant: *variant,
		Epochs: *epochs,
		Progress: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if spec.Epochs == 0 {
		spec.Epochs = deploy.DefaultEpochs(scale)
	}
	m, err := deploy.BuildEdgeNet(spec, synth.Train.NumClasses)
	if err != nil {
		return err
	}

	start := time.Now()
	if _, err := deploy.TrainEdge(spec, m, synth); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pipeline finished in %.1fs; hard classes %v\n",
		time.Since(start).Seconds(), m.Dict.FromHard)

	testCM, _, err := core.EvaluateMain(m, synth.Test, 64)
	if err != nil {
		return err
	}
	rep, err := core.Evaluate(m, synth.Test, 64, core.Policy{UseCloud: false}, nil)
	if err != nil {
		return err
	}
	fmt.Printf("test accuracy: main %.2f%%, MEANet %.2f%%\n",
		100*testCM.Accuracy(), 100*rep.Overall)

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	// SaveState persists the full deployable state: weights, batch-norm
	// statistics and the hard-class dictionary.
	if err := core.SaveState(f, m); err != nil {
		f.Close()
		return fmt.Errorf("save state: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("state saved to %s (%d bytes)\n", *out, info.Size())
	return nil
}
