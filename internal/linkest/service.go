package linkest

// Defaults shared by every service-time estimate in the system: the replica
// router's capacity weights, a stage hop's piggybacked per-instance time and
// the chain client's local-stage rate all smooth with the same weight and
// trust the estimate after the same number of samples.
const (
	ServiceAlpha      = 0.3
	ServiceMinSamples = 3
)

// ServiceTime is a queue-normalized service-time EWMA: seconds of work per
// unit (a call, an instance), with the wall time of each sample divided by
// how many jobs shared the server while it ran. Without the normalization a
// busy fast device measures slower than an idle straggler — the estimate
// would encode the queue it is supposed to be orthogonal to.
//
// The zero value is an empty estimate. ServiceTime carries no lock: every
// owner already serializes its bookkeeping under a mutex of its own.
type ServiceTime struct {
	ewma float64
	n    int
}

// Observe folds in one sample: seconds of wall time for one unit of work,
// measured while sharers jobs (this one included) shared the server; alpha is
// the weight of the new sample. The first sample seeds the average directly —
// decaying up from zero would understate a slow device for its first dozen
// samples. Non-positive samples (clock quirks) are dropped.
func (s *ServiceTime) Observe(seconds, sharers, alpha float64) {
	if seconds <= 0 {
		return
	}
	if sharers > 1 {
		seconds /= sharers
	}
	if s.n == 0 {
		s.ewma = seconds
	} else {
		s.ewma = alpha*seconds + (1-alpha)*s.ewma
	}
	s.n++
}

// Seconds returns the estimate, or 0 while fewer than minSamples samples
// have been folded in: callers explore an unmeasured device instead of
// judging it on noise.
func (s *ServiceTime) Seconds(minSamples int) float64 {
	if s.n < minSamples {
		return 0
	}
	return s.ewma
}
