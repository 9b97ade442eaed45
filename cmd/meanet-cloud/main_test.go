package main

import (
	"strings"
	"testing"

	"github.com/meanet/meanet/internal/data"
)

// TestCloudEpochs pins what -epochs trains: the value itself when set — for
// the standalone CNN and, under -tail/-downstream, for the features tail —
// and the scale default when left at 0.
func TestCloudEpochs(t *testing.T) {
	for _, tc := range []struct {
		flag  int
		scale data.Scale
		want  int
	}{
		{0, data.ScaleTiny, 6},
		{0, data.ScaleSmall, 22},
		{0, data.ScaleFull, 35},
		{3, data.ScaleTiny, 3},
		{40, data.ScaleSmall, 40},
	} {
		if got := cloudEpochs(tc.flag, tc.scale); got != tc.want {
			t.Errorf("cloudEpochs(%d, %v) = %d, want %d", tc.flag, tc.scale, got, tc.want)
		}
	}
}

// TestNegativeEpochsRejected: a negative -epochs fails flag validation,
// before any training starts.
func TestNegativeEpochsRejected(t *testing.T) {
	err := run([]string{"-tail", "-scale", "tiny", "-epochs", "-1"})
	if err == nil || !strings.Contains(err.Error(), "-epochs") {
		t.Fatalf("run with -epochs -1 returned %v, want a -epochs validation error", err)
	}
}

// TestNegativeBatchingFlagsRejected: a negative -batch, -linger or
// -shed-retry-after fails flag validation, before any training starts,
// instead of serving unbatched or with the default linger or hint.
func TestNegativeBatchingFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-batch", []string{"-scale", "tiny", "-batch", "-1"}},
		{"-linger", []string{"-scale", "tiny", "-batch", "8", "-linger", "-1ms"}},
		{"-shed-retry-after", []string{"-scale", "tiny", "-shed-retry-after", "-5ms"}},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("run %q returned %v, want a %s validation error", tc.args, err, tc.flag)
		}
	}
}
