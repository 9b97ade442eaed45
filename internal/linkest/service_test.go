package linkest

import (
	"math"
	"testing"
	"time"
)

// The three hand-rolled estimators ServiceTime replaced, kept here verbatim
// as reference models: the replica router's per-call capacity EWMA
// (edge.MultiClient.noteResult), the stage hop's per-instance EWMA
// (cloud.Server.noteStageService) and the chain client's local-stage EWMA
// (edge.ChainClient.noteLocalService). All three used alpha 0.3 and trusted
// the estimate from the third sample on.

type oldEWMA struct {
	ewma float64
	n    int
}

// oldReplica folds one successful routed call: svc wall time behind `ahead`
// queued jobs.
func (o *oldEWMA) oldReplica(svc time.Duration, ahead, a float64) {
	if svc > 0 {
		if ahead < 0 {
			ahead = 0
		}
		sample := svc.Seconds() / (1 + ahead)
		if o.n == 0 {
			o.ewma = sample
		} else {
			o.ewma = (1-a)*o.ewma + a*sample
		}
		o.n++
	}
}

// oldStage folds one stage forward (the hop's and the chain client's rule
// were the same code): dur wall time for `instances` instances while
// `active` forwards shared the cores.
func (o *oldEWMA) oldStage(dur time.Duration, instances int, active int64) {
	const alpha = 0.3
	if instances <= 0 || dur <= 0 {
		return
	}
	sample := dur.Seconds() / float64(instances)
	if active > 1 {
		sample /= float64(active)
	}
	if o.n == 0 {
		o.ewma = sample
	} else {
		o.ewma = alpha*sample + (1-alpha)*o.ewma
	}
	o.n++
}

func (o *oldEWMA) gated(minSamples int) float64 {
	if o.n < minSamples || o.ewma <= 0 {
		return 0
	}
	return o.ewma
}

type svcSample struct {
	dur       time.Duration
	instances int     // stage rules
	active    int64   // stage rules
	ahead     float64 // replica rule
}

func TestServiceTimeReproducesOldRules(t *testing.T) {
	ms, us := time.Millisecond, time.Microsecond
	seqs := map[string][]svcSample{
		"steady":          {{2 * ms, 4, 1, 0}, {2 * ms, 4, 1, 0}, {2 * ms, 4, 1, 0}, {2 * ms, 4, 1, 0}},
		"contended":       {{9 * ms, 16, 3, 2}, {7 * ms, 16, 2, 1}, {13 * ms, 8, 4, 3}, {3 * ms, 1, 1, 0}, {5 * ms, 2, 7, 6}},
		"outlier":         {{1 * ms, 1, 1, 0}, {100 * ms, 1, 1, 0}, {1 * ms, 1, 1, 0}, {1 * ms, 1, 1, 0}, {1 * ms, 1, 1, 0}},
		"dropped samples": {{0, 4, 1, 0}, {-3 * us, 4, 2, 1}, {417 * us, 3, 1, 0}, {0, 1, 1, 0}, {911 * us, 5, 2, 1}, {77 * us, 7, 1, 0}},
		"odd alpha":       {{1234567, 3, 2, 1}, {7654321, 5, 1, 0}, {1111111, 7, 3, 2}, {999, 1, 1, 0}},
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, seq := range seqs {
		for _, alpha := range []float64{ServiceAlpha, 0.05, 1} {
			var replicaOld, stageOld oldEWMA
			var replicaNew, stageNew ServiceTime
			for i, s := range seq {
				replicaOld.oldReplica(s.dur, s.ahead, alpha)
				replicaNew.Observe(s.dur.Seconds(), 1+s.ahead, alpha)
				if alpha == ServiceAlpha { // the stage rules had the weight fixed
					stageOld.oldStage(s.dur, s.instances, s.active)
					stageNew.Observe(s.dur.Seconds()/float64(s.instances), float64(s.active), ServiceAlpha)
				}
				for min := 1; min <= ServiceMinSamples+1; min++ {
					if got, want := replicaNew.Seconds(min), replicaOld.gated(min); !same(got, want) {
						t.Fatalf("%s alpha %v sample %d gate %d: replica rule %v, ServiceTime %v", name, alpha, i, min, want, got)
					}
					if got, want := stageNew.Seconds(min), stageOld.gated(min); !same(got, want) {
						t.Fatalf("%s sample %d gate %d: stage rule %v, ServiceTime %v", name, i, min, want, got)
					}
				}
			}
		}
	}
}

func TestServiceTimeZeroValueAndReset(t *testing.T) {
	var s ServiceTime
	if got := s.Seconds(0); got != 0 {
		t.Fatalf("empty estimate reads %v", got)
	}
	s.Observe(0.004, 1, ServiceAlpha)
	if got := s.Seconds(1); got != 0.004 {
		t.Fatalf("first sample must seed the average, got %v", got)
	}
	if got := s.Seconds(ServiceMinSamples); got != 0 {
		t.Fatalf("one sample passed the %d-sample gate: %v", ServiceMinSamples, got)
	}
	s = ServiceTime{}
	if got := s.Seconds(1); got != 0 {
		t.Fatalf("reset estimate reads %v", got)
	}
}
