package main

import (
	"fmt"
	"io"
	"sort"
)

// aaMetric is one row family of the A/A report: an end-to-end metric and the
// bound its run-to-run gap is held to.
type aaMetric struct {
	name     string
	bound    float64
	absolute bool // the bound is an absolute difference, not a share
	traced   bool // read from the traced run's untraced reference window
}

// aaMetrics are the gated seven plus the two the contract cannot gate, at the
// ISSUE's own bounds.
func aaMetrics() []aaMetric {
	var out []aaMetric
	for _, m := range endToEndMetrics {
		out = append(out, aaMetric{name: m.name, bound: m.bound})
	}
	return append(out,
		aaMetric{name: "uplink_bytes_per_item", bound: 0.01, traced: true},
		aaMetric{name: "failed_frac", bound: 0.001, absolute: true, traced: true})
}

// reportAA prints, per metric x workload, every suite's value, the gap
// between the extremes as a share of their median, and PASS/FAIL against the
// metric's bound. It reports whether everything passed.
func reportAA(w io.Writer, suites []suite) bool {
	pass := true
	fmt.Fprintf(w, "%-15s %-24s %-8s %-8s %s\n", "workload", "metric", "gap", "bound", "values")
	for _, wl := range workloads {
		for _, m := range aaMetrics() {
			var vals []float64
			for _, s := range suites {
				res := s[wl.name].EndToEnd
				if m.traced {
					res = s[wl.name].PerLayer
				}
				vals = append(vals, res.Metrics[m.name].Value)
			}
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			gap := sorted[len(sorted)-1] - sorted[0]
			if mid := percentile(sorted, 50); !m.absolute && mid != 0 {
				gap /= mid
			}
			verdict := "PASS"
			if gap > m.bound {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(w, "%-15s %-24s %-8.4f %-8.4f %s %v\n", wl.name, m.name, gap, m.bound, verdict, vals)
		}
	}
	return pass
}
