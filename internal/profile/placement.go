package profile

// The pipeline placement solver: given a flattened serving chain
// (core.FlattenChain), a set of devices with per-device compute scale, and
// the link between each adjacent pair, pick the cut points that maximize
// steady-state pipeline throughput. The model is the classic one: with
// pipelined frames in flight, aggregate images/s is bounded by the slowest
// stage — either one device's per-instance compute time (stage MACs divided
// by the device's MACs/s) or one link's per-instance transfer time for the
// activation crossing it. Link times use netsim.Link.TransferTime (latency +
// serialization), matching how ShapedConn charges each relay frame, so the
// solver's predictions line up with netsim-measured scenarios; on real links
// latency would partly amortize across pipelined frames, making the
// prediction conservative.
//
// Enumeration is exhaustive over strictly increasing cut chains — C(L-1, N-1)
// candidates for L chain units and N devices, trivially small for the
// tens-of-units chains the cost model covers — and every candidate's per-unit
// costs come from LayerCost, so an unknown layer type fails the solve loudly
// instead of being priced at zero.

import (
	"fmt"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/protocol"
)

// Device is one pipeline hop's compute capability.
type Device struct {
	Name string
	// MACsPerSec is the device's sustained multiply-accumulate rate; relative
	// magnitudes are what matter (heterogeneous accelerators = different
	// rates).
	MACsPerSec float64
}

// RelayWireBytes is the wire size of relaying one instance's CHW activation
// downstream with the given number of route boundaries still ahead of the
// receiving hop: the batch-of-one MsgInfer frame the chain actually sends.
func RelayWireBytes(s Shape, boundariesLeft int) int64 {
	return int64(protocol.InferWireSize(boundariesLeft, 1, s.C, s.H, s.W))
}

// StagePlan is one stage of a placement.
type StagePlan struct {
	Device   string
	From, To int   // chain unit range [From, To); empty for a relay-only edge
	Cost     Cost  // summed cost of the stage's units
	Out      Shape // activation shape leaving this stage
	// ComputeSec is the per-instance stage time on this device; TransferSec
	// the per-instance time to move Out across the downstream link (0 on the
	// terminal stage); WireBytes the modeled bytes of that transfer.
	ComputeSec  float64
	TransferSec float64
	WireBytes   int64
}

// Placement is a solved assignment of chain stages to devices.
type Placement struct {
	Cuts       []core.CutPoint
	Stages     []StagePlan
	Throughput float64 // modeled steady-state images/s (1/bottleneck)
	Bottleneck string  // what bounds it, e.g. "stage 1 compute on hop" or "link 0→1"
}

// chainCosts prices every chain unit with LayerCost, threading the shape
// through. outs[i] is the activation shape AFTER unit i — the candidate cut
// geometry the solver enumerates over.
func chainCosts(chain []nn.Layer, in Shape) (costs []Cost, outs []Shape, err error) {
	costs = make([]Cost, len(chain))
	outs = make([]Shape, len(chain))
	cur := in
	for i, l := range chain {
		c, out, err := LayerCost(l, cur)
		if err != nil {
			return nil, nil, fmt.Errorf("profile: chain unit %d: %w", i, err)
		}
		costs[i] = c
		outs[i] = out
		cur = out
	}
	return costs, outs, nil
}

// ChainCosts prices every chain unit with LayerCost, threading the shape
// through — the exported face of the solver's cost table, consumed by the
// edge's live re-placement loop to convert measured stage service times into
// device MACs/s rates (rate = span MACs / measured seconds).
func ChainCosts(chain []nn.Layer, in Shape) (costs []Cost, outs []Shape, err error) {
	return chainCosts(chain, in)
}

// EvaluateCuts prices ONE specific cut chain against the devices and links —
// the comparison a live re-solver makes between the cuts it is running and a
// freshly solved placement before paying the cost of a move.
func EvaluateCuts(chain []nn.Layer, in Shape, devices []Device, links []netsim.Link, cuts []core.CutPoint) (Placement, error) {
	if len(devices) == 0 {
		return Placement{}, fmt.Errorf("profile: placement needs at least one device")
	}
	if len(links) != len(devices)-1 {
		return Placement{}, fmt.Errorf("profile: %d devices need %d links, got %d", len(devices), len(devices)-1, len(links))
	}
	if len(cuts) != len(devices)-1 {
		return Placement{}, fmt.Errorf("profile: %d devices need %d cuts, got %d", len(devices), len(devices)-1, len(cuts))
	}
	prev := core.CutPoint(0)
	for i, c := range cuts {
		if c <= prev || int(c) >= len(chain) {
			return Placement{}, fmt.Errorf("profile: cut %d (%d) illegal for a chain of %d units", i, c, len(chain))
		}
		prev = c
	}
	for _, d := range devices {
		if d.MACsPerSec <= 0 {
			return Placement{}, fmt.Errorf("profile: device %q has no compute rate", d.Name)
		}
	}
	costs, outs, err := chainCosts(chain, in)
	if err != nil {
		return Placement{}, err
	}
	p := evaluate(cuts, costs, outs, devices, links)
	p.Cuts = append([]core.CutPoint(nil), cuts...)
	return p, nil
}

// PlacePipeline enumerates every legal cut chain assigning the serving chain
// to the devices in order (device 0 = the edge, last device = the terminal
// hop; links[i] connects device i to i+1) and returns the
// throughput-maximizing placement. Every device runs at least one chain
// unit; use DirectPlacement for the ship-raw-input baseline.
func PlacePipeline(chain []nn.Layer, in Shape, devices []Device, links []netsim.Link) (Placement, error) {
	if len(devices) == 0 {
		return Placement{}, fmt.Errorf("profile: placement needs at least one device")
	}
	if len(links) != len(devices)-1 {
		return Placement{}, fmt.Errorf("profile: %d devices need %d links, got %d", len(devices), len(devices)-1, len(links))
	}
	if len(chain) < len(devices) {
		return Placement{}, fmt.Errorf("profile: chain of %d units cannot span %d devices", len(chain), len(devices))
	}
	for _, d := range devices {
		if d.MACsPerSec <= 0 {
			return Placement{}, fmt.Errorf("profile: device %q has no compute rate", d.Name)
		}
	}
	costs, outs, err := chainCosts(chain, in)
	if err != nil {
		return Placement{}, err
	}

	var best Placement
	cuts := make([]core.CutPoint, len(devices)-1)
	// enumerate assigns cut index i a position in [lo, len(chain)-1] above
	// the previous cut, recursing until all cuts are placed.
	var enumerate func(i, lo int)
	enumerate = func(i, lo int) {
		if i == len(cuts) {
			p := evaluate(cuts, costs, outs, devices, links)
			if p.Throughput > best.Throughput {
				p.Cuts = append([]core.CutPoint(nil), cuts...)
				best = p
			}
			return
		}
		// Leave room for the remaining cuts (each later stage non-empty).
		for c := lo; c <= len(chain)-(len(cuts)-i); c++ {
			cuts[i] = core.CutPoint(c)
			enumerate(i+1, c+1)
		}
	}
	enumerate(0, 1)
	if best.Throughput <= 0 {
		return Placement{}, fmt.Errorf("profile: no legal placement found")
	}
	return best, nil
}

// evaluate prices one cut chain: per-stage compute on its device, per-link
// transfer of the crossing activation, bottleneck = the slowest of them all.
func evaluate(cuts []core.CutPoint, costs []Cost, outs []Shape, devices []Device, links []netsim.Link) Placement {
	bounds := make([]int, 0, len(cuts)+2)
	bounds = append(bounds, 0)
	for _, c := range cuts {
		bounds = append(bounds, int(c))
	}
	bounds = append(bounds, len(costs))

	p := Placement{Stages: make([]StagePlan, len(devices))}
	var worst float64
	for i := range devices {
		from, to := bounds[i], bounds[i+1]
		st := StagePlan{Device: devices[i].Name, From: from, To: to}
		for u := from; u < to; u++ {
			st.Cost = st.Cost.Add(costs[u])
		}
		if to > from {
			st.Out = outs[to-1]
		}
		st.ComputeSec = float64(st.Cost.MACs) / devices[i].MACsPerSec
		if st.ComputeSec > worst {
			worst = st.ComputeSec
			p.Bottleneck = fmt.Sprintf("stage %d compute on %s", i, devices[i].Name)
		}
		if i < len(links) {
			st.WireBytes = RelayWireBytes(st.Out, len(links)-1-i)
			st.TransferSec = links[i].TransferTime(st.WireBytes).Seconds()
			if st.TransferSec > worst {
				worst = st.TransferSec
				p.Bottleneck = fmt.Sprintf("link %d→%d transfer", i, i+1)
			}
		}
		p.Stages[i] = st
	}
	if worst > 0 {
		p.Throughput = 1 / worst
	}
	return p
}

// LocalPlacement models running the whole chain on one device — the
// all-edge baseline the solver's pipelines are judged against.
func LocalPlacement(chain []nn.Layer, in Shape, dev Device) (Placement, error) {
	return PlacePipeline(chain, in, []Device{dev}, nil)
}

// DirectPlacement models today's raw offload: the edge ships the raw input
// across the uplink (a raw batch-of-one request) and the remote device
// runs the whole chain. Its stage 0 is the empty edge stage; the bottleneck is the
// larger of the raw-input transfer and the remote full-model compute.
func DirectPlacement(chain []nn.Layer, in Shape, uplink netsim.Link, edge, remote Device) (Placement, error) {
	if len(chain) == 0 {
		return Placement{}, fmt.Errorf("profile: empty chain")
	}
	costs, outs, err := chainCosts(chain, in)
	if err != nil {
		return Placement{}, err
	}
	if remote.MACsPerSec <= 0 {
		return Placement{}, fmt.Errorf("profile: device %q has no compute rate", remote.Name)
	}
	var total Cost
	for _, c := range costs {
		total = total.Add(c)
	}
	wire := RelayWireBytes(in, 0) // a direct raw offload is the same frame with no route
	transfer := uplink.TransferTime(wire).Seconds()
	compute := float64(total.MACs) / remote.MACsPerSec
	p := Placement{
		Cuts: []core.CutPoint{0}, // sentinel: the split sits before unit 0
		Stages: []StagePlan{
			{Device: edge.Name, From: 0, To: 0, Out: in, TransferSec: transfer, WireBytes: wire},
			{Device: remote.Name, From: 0, To: len(chain), Cost: total, Out: outs[len(outs)-1], ComputeSec: compute},
		},
		Bottleneck: "uplink raw transfer",
	}
	worst := transfer
	if compute > worst {
		worst = compute
		p.Bottleneck = fmt.Sprintf("full-chain compute on %s", remote.Name)
	}
	if worst > 0 {
		p.Throughput = 1 / worst
	}
	return p, nil
}
