package core

import (
	"errors"
	"fmt"

	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/tensor"
)

// FeatureDataset runs the (frozen) main block over a dataset in evaluation
// mode and materializes the feature maps as a new dataset with the same
// labels — the training substrate for a cloud-side tail in the §III-C
// "sending features" collaboration mode. The forward runs in mini-batches of
// the given size.
func (m *MEANet) FeatureDataset(ds *data.Dataset, batch int) (*data.Dataset, error) {
	if ds == nil {
		return nil, errors.New("core: nil dataset")
	}
	if ds.N == 0 {
		return data.NewDataset(0, 0, 0, 0, ds.NumClasses), nil
	}
	var out *data.Dataset
	err := ds.EachBatch(batch, func(start int, x *tensor.Tensor, y []int) error {
		feat := m.Main.Forward(x, false)
		if out == nil {
			shape := feat.Shape()
			if len(shape) != 4 {
				return fmt.Errorf("core: main block produced rank-%d features, want NCHW", len(shape))
			}
			out = data.NewDataset(ds.N, shape[1], shape[2], shape[3], ds.NumClasses)
		}
		copy(out.X[start*out.ImageSize():], feat.Data())
		nn.Recycle(feat, x)
		copy(out.Y[start:], y)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
