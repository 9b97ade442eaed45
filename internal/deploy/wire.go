package deploy

import (
	"errors"
	"fmt"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/energy"
	"github.com/meanet/meanet/internal/profile"
	"github.com/meanet/meanet/internal/tensor"
)

// Tier is a dialed cloud tier: the pipelined connection to its one replica
// or the router over several. edge.NewRuntime and edge.NewRoutedChainClient
// both take it, and it counts the shed frames it received.
type Tier interface {
	edge.CloudClient
	edge.Transport
	Sheds() uint64
}

// DialTier dials the cloud tier the way every deployment does. One address
// is one pipelined *edge.TCPClient; several are DialMultiCloud's router, one
// such client per replica with its Hello handshake done, returned a second
// time as the router (nil for one address) for membership and per-replica
// reporting. dcfg.Redial, when set, dials the one replica's connection, so
// it rejects a list.
func DialTier(addrs []string, dcfg edge.DialConfig, mcfg edge.MultiConfig) (Tier, *edge.MultiClient, error) {
	switch {
	case len(addrs) == 0:
		return nil, nil, errors.New("deploy: no cloud address")
	case len(addrs) == 1:
		c, err := edge.DialCloud(addrs[0], dcfg)
		if err != nil {
			return nil, nil, err
		}
		return c, nil, nil
	case dcfg.Redial != nil:
		return nil, nil, fmt.Errorf("deploy: a custom redial dials one replica, not %d", len(addrs))
	}
	mc, err := edge.DialMultiCloud(addrs, dcfg, mcfg)
	if err != nil {
		return nil, nil, err
	}
	return mc, mc, nil
}

// EdgeCost is the edge runtime's cost model for a deployed MEANet on in-shaped
// images: the Table VI MAC split, the edge GPU calibrated for the spec's
// dataset, the paper's WiFi model, 8-bit raw images, and float32 features of
// the main block's output geometry.
func EdgeCost(spec EdgeSpec, m *core.MEANet, in profile.Shape) (*edge.CostParams, error) {
	prof, err := profile.ProfileMEANet(m, in, 0)
	if err != nil {
		return nil, err
	}
	compute := energy.EdgeGPUCIFAR()
	if spec.Dataset == "imagenet" {
		compute = energy.EdgeGPUImageNet()
	}
	return &edge.CostParams{
		MainMACs:     prof.Fixed.MACs,
		ExtMACs:      prof.Trained.MACs,
		Compute:      compute,
		WiFi:         energy.DefaultWiFi(),
		ImageBytes:   energy.RawImageBytes(in.H, in.W, in.C),
		FeatureBytes: energy.FeatureBytes(prof.MainOut.Elems()),
	}, nil
}

// Stream classifies ds through rt in order, batch instances per Classify
// call, and returns how many predictions match the labels.
func Stream(rt *edge.Runtime, ds *data.Dataset, batch int) (correct int, err error) {
	err = ds.EachBatch(batch, func(_ int, x *tensor.Tensor, y []int) error {
		decisions, err := rt.Classify(x)
		for i, d := range decisions {
			if d.Pred == y[i] {
				correct++
			}
		}
		return err
	})
	return correct, err
}
