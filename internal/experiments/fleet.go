package experiments

// The fleet-shedding experiment is the first multi-edge scenario: N
// concurrent edge runtimes share ONE cloud server whose accelerator is
// deliberately slow and serialized (fleet.SlowModel), so raising N saturates
// it by construction. Two servers are compared at every fleet size — one
// that parks all arriving work (the paper's always-available cloud) and one
// running admission control (cloud.ShedPolicy) that answers excess work with
// shed frames. The table shows the trade the tentpole is about: the shedding
// server sacrifices some cloud accuracy (shed instances fall back to the
// edge decision) but sustains strictly higher aggregate throughput at the
// saturating fleet size, because edges stop queueing behind an accelerator
// that cannot keep up — and every shed instance stays accounted, as an edge
// fallback with zero upload charges (the fleet harness enforces the
// edge+cloud+shed == total identity on every run).

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/netsim/fleet"
)

// fleetCloudDelay is the modeled per-forward accelerator time: large against
// the real tiny-scale forward, so saturation comes from the model, not the
// host.
const fleetCloudDelay = 10 * time.Millisecond

// fleetRetryAfter is the shedding server's back-off hint.
const fleetRetryAfter = 25 * time.Millisecond

// FleetSheddingRow is one (fleet size, server mode) measurement.
type FleetSheddingRow struct {
	Edges        int
	Shed         bool // true = admission control on
	ImagesPerSec float64
	Accuracy     float64
	Beta         float64 // cloud-served fraction
	ShedRate     float64 // shed-fallback fraction
	ShedEvents   int
	CloudFails   int
}

// FleetSheddingResult is the fleet-shedding table.
type FleetSheddingResult struct {
	System     SystemKey
	CloudDelay time.Duration
	RetryAfter time.Duration
	BatchSize  int
	Batches    int
	Rows       []FleetSheddingRow
}

// Row returns the measurement for a (fleet size, server mode) pair.
func (r *FleetSheddingResult) Row(edges int, shed bool) (FleetSheddingRow, bool) {
	for _, row := range r.Rows {
		if row.Edges == edges && row.Shed == shed {
			return row, true
		}
	}
	return FleetSheddingRow{}, false
}

// MaxEdges is the saturating fleet size (the largest measured).
func (r *FleetSheddingResult) MaxEdges() int {
	max := 0
	for _, row := range r.Rows {
		if row.Edges > max {
			max = row.Edges
		}
	}
	return max
}

// FleetShedding measures the C100-B system at fleet sizes 1, 4 and 8 against
// a slow serialized cloud, with and without admission control, on real TCP
// transports. Each run gets a FRESH server (fresh counters, fresh
// connections); the edge runtimes share the trained edge network
// (evaluation-mode forwards are stateless).
func FleetShedding(ctx *Context) (*FleetSheddingResult, error) {
	sys, err := ctx.System(C100B)
	if err != nil {
		return nil, err
	}
	th := sys.ValEntropy.ThresholdMidpoint()
	cost := &edge.CostParams{
		MainMACs:   sys.MainMACs(),
		ExtMACs:    sys.ExtMACs(),
		Compute:    sys.Compute,
		WiFi:       sys.WiFi,
		ImageBytes: sys.ImageBytes(),
	}
	const batchSize, batches = 64, 4
	n := batchSize
	if n > sys.Synth.Test.N {
		n = sys.Synth.Test.N
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	input, labels := sys.Synth.Test.Batch(idx)

	res := &FleetSheddingResult{
		System:     sys.Key,
		CloudDelay: fleetCloudDelay,
		RetryAfter: fleetRetryAfter,
		BatchSize:  n,
		Batches:    batches,
	}
	for _, edges := range []int{1, 4, 8} {
		for _, shed := range []bool{false, true} {
			opts := []cloud.Option{}
			if shed {
				opts = append(opts, cloud.WithShedding(cloud.ShedPolicy{
					MaxInFlight: 2,
					RetryAfter:  fleetRetryAfter,
				}))
			}
			srv, err := cloud.NewServer(&fleet.SlowModel{Inner: sys.Cloud, Delay: fleetCloudDelay}, nil, opts...)
			if err != nil {
				return nil, err
			}
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				return nil, err
			}
			run, err := fleet.Run(fleet.Config{
				Addr:    srv.Addr().String(),
				Edges:   edges,
				Batches: batches,
				Net:     sys.Edge,
				Policy:  core.Policy{Threshold: th, UseCloud: true, CloudRetries: 1},
				Cost:    cost,
				Input:   input,
				Labels:  labels,
			})
			srv.Close()
			if err != nil {
				return nil, fmt.Errorf("experiments: fleet %d edges (shed %v): %w", edges, shed, err)
			}
			res.Rows = append(res.Rows, FleetSheddingRow{
				Edges:        edges,
				Shed:         shed,
				ImagesPerSec: run.ImagesPerSec,
				Accuracy:     run.Accuracy(),
				Beta:         run.CloudFraction(),
				ShedRate:     run.ShedRate(),
				ShedEvents:   run.ShedEvents,
				CloudFails:   run.CloudFailures,
			})
		}
	}
	return res, nil
}

// String renders the table.
func (r *FleetSheddingResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fleet shedding (%s, %v serialized cloud forward, %d×%d-image batches per edge, retry-after %v)\n",
		r.System, r.CloudDelay, r.Batches, r.BatchSize, r.RetryAfter)
	w := tabwriter.NewWriter(&sb, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "edges\tserver\timages/s\taccuracy\tbeta\tshed-rate\tshed events\tcloud fails")
	for _, row := range r.Rows {
		mode := "park-all"
		if row.Shed {
			mode = "shedding"
		}
		fmt.Fprintf(w, "%d\t%s\t%.0f\t%.1f%%\t%.1f%%\t%.1f%%\t%d\t%d\n",
			row.Edges, mode, row.ImagesPerSec, 100*row.Accuracy, 100*row.Beta,
			100*row.ShedRate, row.ShedEvents, row.CloudFails)
	}
	w.Flush()
	sb.WriteString("the park-all server queues every edge behind one slow accelerator; the shedding server refuses\n")
	sb.WriteString("excess work (retry-after honored edge-side), trading cloud accuracy for aggregate throughput\n")
	return sb.String()
}
