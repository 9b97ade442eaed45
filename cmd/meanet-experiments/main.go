// Command meanet-experiments regenerates the paper's tables and figures on
// the synthetic substrate.
//
// Usage:
//
//	meanet-experiments [-scale tiny|small|full] [-seed N] [-run NAME] [-list] [-quiet]
//
// Without -run it executes every experiment in paper order; results print to
// stdout, progress to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/meanet/meanet/internal/deploy"
	"github.com/meanet/meanet/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "meanet-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("meanet-experiments", flag.ContinueOnError)
	scaleName := fs.String("scale", "small", "workload scale: tiny, small or full")
	seed := fs.Int64("seed", 1, "master random seed")
	runName := fs.String("run", "", "run a single experiment (see -list)")
	list := fs.Bool("list", false, "list experiment names and exit")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	mainEpochs := fs.Int("main-epochs", 0, "main-block training epochs (0 = scale default)")
	edgeEpochs := fs.Int("edge-epochs", 0, "edge-block training epochs (0 = scale default)")
	cloudEpochs := fs.Int("cloud-epochs", 0, "cloud-model training epochs (0 = scale default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return nil
	}
	scale, err := deploy.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	cfg := experiments.Config{
		Scale: scale, Seed: *seed,
		MainEpochs: *mainEpochs, EdgeEpochs: *edgeEpochs, CloudEpochs: *cloudEpochs,
	}
	if !*quiet {
		start := time.Now()
		cfg.Progress = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "[%6.1fs] %s\n", time.Since(start).Seconds(), fmt.Sprintf(format, a...))
		}
	}
	ctx := experiments.NewContext(cfg)
	if *runName != "" {
		return experiments.RunOne(ctx, *runName, os.Stdout)
	}
	return experiments.RunAll(ctx, os.Stdout)
}
