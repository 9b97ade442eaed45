package deploy

// BuildSweepNet exports the partition sweep's fixture to the external test
// package, whose conformance matrix reaches the chain harness in
// internal/netsim/fleet — a package that itself imports deploy.
var BuildSweepNet = buildSweepNet
