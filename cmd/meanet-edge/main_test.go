package main

import (
	"strings"
	"testing"
)

// TestFlagErrorsBeforeTraining covers every flag-error return of run that
// comes before training, at the default -scale small: each must name its
// flag. None of them trains, dials or listens, so the table runs in
// milliseconds.
func TestFlagErrorsBeforeTraining(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-batch", []string{"-batch", "0"}},
		{"-retries", []string{"-retries", "-1"}},
		{"-offload", []string{"-offload", "pixels"}},
		{"-scale", []string{"-scale", "huge"}},
		{"-latency", []string{"-latency", "-1ms"}},
		{"-mbps", []string{"-mbps", "-1"}},
		{"-latency-budget", []string{"-latency-budget", "-20ms"}},
		{"-adapt-min-samples", []string{"-adapt-min-samples", "-1"}},
		{"-cuts", []string{"-cuts", "3", "-cloud", "127.0.0.1:1,127.0.0.1:2"}},
		{"-cuts", []string{"-cuts", "3", "-cloud", ""}},
		{"-cuts", []string{"-cuts", "3", "-offload", "features"}},
		{"-cuts", []string{"-cuts", "3,3"}},
		{"-cuts", []string{"-cuts", "6,x"}},
		{"-cuts", []string{"-cuts", "99"}},
		{"-replan", []string{"-replan"}},
		{"-replan-hysteresis", []string{"-cuts", "3", "-replan", "-replan-hysteresis", "0"}},
		{"-chain-fallback", []string{"-chain-fallback", "127.0.0.1:1"}},
		{"-admin", []string{"-admin", "127.0.0.1:0"}},
		{"-plan-rates", []string{"-plan-rates", "1e9,1e9"}},
		{"-plan-links", []string{"-plan-links", "7@1ms"}},
		{"-plan-links", []string{"-plan", "-plan-rates", "2e8,2e8", "-plan-links", "-7@1ms"}},
		{"-plan-links", []string{"-plan", "-plan-rates", "2e8,2e8", "-plan-links", "7@-1ms"}},
		{"-dataset", []string{"-dataset", "mnist"}},
		{"-variant", []string{"-variant", "C"}},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("run %q = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}
