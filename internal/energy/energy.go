// Package energy implements the paper's inference cost model: the WiFi
// upload power model (§IV-B5, after Huang et al.), per-image computation and
// communication energy (Table VII), and the edge/cloud/edge-cloud cost
// algebra of Table I used to produce Fig 8.
package energy

import (
	"fmt"
	"math"
	"time"
)

// WiFiModel is the paper's upload power model:
//
//	P_upload = 283.17 mW/Mbps × throughput + 132.86 mW
type WiFiModel struct {
	MWPerMbps      float64
	BaseMW         float64
	ThroughputMbps float64
}

// DefaultWiFi returns the constants used in the paper (throughput = average
// upload speed 18.88 Mb/s, giving P ≈ 5.48 W).
func DefaultWiFi() WiFiModel {
	return WiFiModel{MWPerMbps: 283.17, BaseMW: 132.86, ThroughputMbps: 18.88}
}

// UploadPowerWatts evaluates the power model.
func (w WiFiModel) UploadPowerWatts() float64 {
	return (w.MWPerMbps*w.ThroughputMbps + w.BaseMW) / 1000
}

// UploadTime is the serialization time of a payload at the configured
// throughput.
func (w WiFiModel) UploadTime(bytes int64) time.Duration {
	if bytes <= 0 || w.ThroughputMbps <= 0 {
		return 0
	}
	seconds := float64(bytes*8) / (w.ThroughputMbps * 1e6)
	return time.Duration(seconds * float64(time.Second))
}

// UploadEnergyJ is E = P × t for a payload.
func (w WiFiModel) UploadEnergyJ(bytes int64) float64 {
	return w.UploadPowerWatts() * w.UploadTime(bytes).Seconds()
}

// Link describes a one-way network path.
type Link struct {
	Latency time.Duration // propagation delay applied per message
	Mbps    float64       // serialization bandwidth; 0 = infinite
}

// TransferTime is the analytic time to move a payload across the link:
// latency + bytes/bandwidth. It is used for deterministic simulation;
// netsim's shaped connections apply the same model to real sockets.
func (l Link) TransferTime(bytes int64) time.Duration {
	d := l.Latency
	if l.Mbps > 0 && bytes > 0 {
		seconds := float64(bytes*8) / (l.Mbps * 1e6)
		d += time.Duration(seconds * float64(time.Second))
	}
	return d
}

// Validate reports configuration errors.
func (l Link) Validate() error {
	if l.Latency < 0 {
		return fmt.Errorf("energy: negative link latency %v", l.Latency)
	}
	if !(l.Mbps >= 0) || math.IsInf(l.Mbps, 1) {
		return fmt.Errorf("energy: link bandwidth %v, want a finite value ≥ 0", l.Mbps)
	}
	return nil
}

// ComputeModel converts MAC counts into edge latency and energy. The paper
// measures GPU power and per-image latency directly (Table VII); we
// calibrate MACsPerSec so the published (power, latency) pairs are
// reproduced for the published models, then apply the same model to any MAC
// count.
type ComputeModel struct {
	Name       string
	PowerW     float64
	MACsPerSec float64
}

// EdgeGPUCIFAR reproduces the Table VII CIFAR row: 56 W and 0.056 ms/image
// for the ≈77M-MAC ResNet32-A decomposition → 1.375e12 MAC/s.
func EdgeGPUCIFAR() ComputeModel {
	return ComputeModel{Name: "gtx1080ti-cifar", PowerW: 56, MACsPerSec: 1.375e12}
}

// EdgeGPUImageNet reproduces the Table VII ImageNet row: 75 W and
// 0.203 ms/image for the ≈1.82G-MAC ResNet18 → 8.97e12 MAC/s (larger batch,
// better utilization).
func EdgeGPUImageNet() ComputeModel {
	return ComputeModel{Name: "gtx1080ti-imagenet", PowerW: 75, MACsPerSec: 8.97e12}
}

// Latency is the time to execute the given MAC count.
func (c ComputeModel) Latency(macs int64) time.Duration {
	if macs <= 0 || c.MACsPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(macs) / c.MACsPerSec * float64(time.Second))
}

// EnergyJ is P × t for the given MAC count.
func (c ComputeModel) EnergyJ(macs int64) float64 {
	return c.PowerW * c.Latency(macs).Seconds()
}

// PerImage bundles the Table VII quantities for one model/dataset pair.
type PerImage struct {
	GPUPowerW      float64
	UploadPowerW   float64
	ComputeTime    time.Duration // t_cp
	UploadTime     time.Duration // t_cu
	ComputeEnergyJ float64       // E_cp
	UploadEnergyJ  float64       // E_cu
}

// TableVII derives the per-image costs from a compute model, a WiFi model,
// the per-image MAC count and the raw image size in bytes.
func TableVII(cm ComputeModel, w WiFiModel, macs, imageBytes int64) PerImage {
	return PerImage{
		GPUPowerW:      cm.PowerW,
		UploadPowerW:   w.UploadPowerWatts(),
		ComputeTime:    cm.Latency(macs),
		UploadTime:     w.UploadTime(imageBytes),
		ComputeEnergyJ: cm.EnergyJ(macs),
		UploadEnergyJ:  w.UploadEnergyJ(imageBytes),
	}
}

// Breakdown is an edge-side energy total split into computation and
// communication, the two bars of Fig 8.
type Breakdown struct {
	ComputeJ float64
	CommJ    float64
}

// TotalJ sums both components.
func (b Breakdown) TotalJ() float64 { return b.ComputeJ + b.CommJ }

// Add returns the elementwise sum.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{ComputeJ: b.ComputeJ + o.ComputeJ, CommJ: b.CommJ + o.CommJ}
}

// CostModel instantiates Table I. All quantities are per instance; Beta is
// the measured fraction of instances offloaded to the cloud and Q the
// fraction of edge computation retained when sending features.
type CostModel struct {
	N               int     // total instances
	EdgeComputeJ    float64 // x: edge energy per instance
	UploadRawJ      float64 // x_cu: upload energy per raw instance
	UploadFeaturesJ float64 // x'_cu: upload energy per feature tensor
	Beta            float64 // fraction sent to cloud
	Q               float64 // fraction of layers kept at the edge (features mode)
}

// Validate reports configuration errors.
func (c CostModel) Validate() error {
	switch {
	case c.N < 0:
		return fmt.Errorf("energy: negative instance count %d", c.N)
	case c.Beta < 0 || c.Beta > 1:
		return fmt.Errorf("energy: beta %v outside [0,1]", c.Beta)
	case c.Q < 0 || c.Q > 1:
		return fmt.Errorf("energy: q %v outside [0,1]", c.Q)
	}
	return nil
}

// EdgeOnly is Table I row 1: all computation stays on the edge.
func (c CostModel) EdgeOnly() Breakdown {
	return Breakdown{ComputeJ: float64(c.N) * c.EdgeComputeJ}
}

// CloudOnly is Table I row 2 from the edge's perspective: every instance is
// uploaded; the edge performs no inference computation. (Cloud-side compute
// N·x_cl is not an edge cost and the paper ignores it likewise.)
func (c CostModel) CloudOnly() Breakdown {
	return Breakdown{CommJ: float64(c.N) * c.UploadRawJ}
}

// EdgeCloudRaw is Table I row 3: every instance runs on the edge, a β
// fraction is additionally uploaded raw.
func (c CostModel) EdgeCloudRaw() Breakdown {
	return Breakdown{
		ComputeJ: float64(c.N) * c.EdgeComputeJ,
		CommJ:    c.Beta * float64(c.N) * c.UploadRawJ,
	}
}

// EdgeCloudFeatures is Table I row 4: the edge computes a q-fraction of the
// network for every instance and uploads features for a β fraction.
func (c CostModel) EdgeCloudFeatures() Breakdown {
	return Breakdown{
		ComputeJ: float64(c.N) * c.Q * c.EdgeComputeJ,
		CommJ:    c.Beta * float64(c.N) * c.UploadFeaturesJ,
	}
}

// RawImageBytes is the paper's raw upload size: H×W×C bytes (8-bit pixels).
func RawImageBytes(h, w, ch int) int64 { return int64(h) * int64(w) * int64(ch) }

// FeatureBytes is the upload size of a float32 feature tensor.
func FeatureBytes(elems int64) int64 { return 4 * elems }
