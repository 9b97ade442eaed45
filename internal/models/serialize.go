package models

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/meanet/meanet/internal/nn"
)

// Weight files are a simple framed binary format:
//
//	magic "MEAW" | uint32 version | uint32 entry count |
//	entries: uint16 key length | key | uint32 value count | float32 values (LE)
//
// Entries are parameter tensors (keyed by parameter name) plus batch-norm
// running statistics (keyed by the layer's gamma name with a suffix).

const (
	weightsMagic   = "MEAW"
	weightsVersion = 1
)

type stateEntry struct {
	key  string
	vals []float32
}

// Walk visits every leaf layer of a layer tree in deterministic order,
// descending through the container types defined in package nn. A
// backbone's layers are walked as the nn.Sequential AsSequential builds.
func Walk(l nn.Layer, fn func(nn.Layer)) {
	switch v := l.(type) {
	case *nn.Sequential:
		for _, sub := range v.Layers {
			Walk(sub, fn)
		}
	case *nn.ResidualBlock:
		Walk(v.Body, fn)
		Walk(v.Shortcut, fn)
	case *nn.InvertedResidual:
		Walk(v.Body, fn)
	default:
		fn(l)
	}
}

// collectState lists every persistent tensor of the layer trees.
func collectState(layers []nn.Layer) ([]stateEntry, error) {
	var entries []stateEntry
	seen := make(map[string]bool)
	add := func(key string, vals []float32) error {
		if seen[key] {
			return fmt.Errorf("models: duplicate state key %q", key)
		}
		seen[key] = true
		entries = append(entries, stateEntry{key: key, vals: vals})
		return nil
	}
	var err error
	for _, root := range layers {
		Walk(root, func(l nn.Layer) {
			if err != nil {
				return
			}
			for _, p := range l.Params() {
				if e := add(p.Name, p.Data.Data()); e != nil {
					err = e
					return
				}
			}
			if bn, ok := l.(*nn.BatchNorm2D); ok {
				if e := add(bn.Gamma.Name+"::running_mean", bn.RunningMean); e != nil {
					err = e
					return
				}
				if e := add(bn.Gamma.Name+"::running_var", bn.RunningVar); e != nil {
					err = e
					return
				}
			}
		})
	}
	return entries, err
}

// SaveWeights writes the parameters and batch-norm statistics of the given
// layer trees. Parameter names must be globally unique across the trees.
func SaveWeights(w io.Writer, layers ...nn.Layer) error {
	entries, err := collectState(layers)
	if err != nil {
		return err
	}
	if _, err := w.Write([]byte(weightsMagic)); err != nil {
		return fmt.Errorf("models: write magic: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(weightsVersion)); err != nil {
		return fmt.Errorf("models: write version: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(entries))); err != nil {
		return fmt.Errorf("models: write count: %w", err)
	}
	buf := make([]byte, 4)
	for _, e := range entries {
		if len(e.key) > math.MaxUint16 {
			return fmt.Errorf("models: key %q too long", e.key[:32])
		}
		if err := binary.Write(w, binary.LittleEndian, uint16(len(e.key))); err != nil {
			return fmt.Errorf("models: write key length: %w", err)
		}
		if _, err := io.WriteString(w, e.key); err != nil {
			return fmt.Errorf("models: write key: %w", err)
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(len(e.vals))); err != nil {
			return fmt.Errorf("models: write value count: %w", err)
		}
		for _, v := range e.vals {
			binary.LittleEndian.PutUint32(buf, math.Float32bits(v))
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("models: write values: %w", err)
			}
		}
	}
	return nil
}

// LoadWeights restores parameters and batch-norm statistics saved by
// SaveWeights into structurally identical layer trees. Every stored entry
// must match a target tensor by key and length, and vice versa.
func LoadWeights(r io.Reader, layers ...nn.Layer) error {
	targets, err := collectState(layers)
	if err != nil {
		return err
	}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("models: read magic: %w", err)
	}
	if string(magic) != weightsMagic {
		return fmt.Errorf("models: bad magic %q", magic)
	}
	var version, count uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return fmt.Errorf("models: read version: %w", err)
	}
	if version != weightsVersion {
		return fmt.Errorf("models: unsupported weights version %d", version)
	}
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("models: read count: %w", err)
	}
	if int(count) != len(targets) {
		return fmt.Errorf("models: weight file has %d entries, model has %d", count, len(targets))
	}
	byKey := make(map[string][]float32, len(targets))
	for _, e := range targets {
		byKey[e.key] = e.vals
	}
	loaded := make(map[string]bool, len(targets))
	for i := uint32(0); i < count; i++ {
		var klen uint16
		if err := binary.Read(r, binary.LittleEndian, &klen); err != nil {
			return fmt.Errorf("models: read key length: %w", err)
		}
		kb := make([]byte, klen)
		if _, err := io.ReadFull(r, kb); err != nil {
			return fmt.Errorf("models: read key: %w", err)
		}
		key := string(kb)
		var vlen uint32
		if err := binary.Read(r, binary.LittleEndian, &vlen); err != nil {
			return fmt.Errorf("models: read value count for %q: %w", key, err)
		}
		dst, ok := byKey[key]
		if !ok {
			return fmt.Errorf("models: weight file entry %q not present in model", key)
		}
		if loaded[key] {
			return fmt.Errorf("models: weight file repeats entry %q", key)
		}
		if int(vlen) != len(dst) {
			return fmt.Errorf("models: entry %q has %d values, model expects %d", key, vlen, len(dst))
		}
		raw := make([]byte, 4*int(vlen))
		if _, err := io.ReadFull(r, raw); err != nil {
			return fmt.Errorf("models: read values for %q: %w", key, err)
		}
		for j := range dst {
			dst[j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*j:]))
		}
		loaded[key] = true
	}
	return nil
}
