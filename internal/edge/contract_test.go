package edge

// Characterization of the offload contract between Runtime.Classify and its
// transport: one scripted transport, every outcome a cloud call can have —
// success, a whole-call error with and without a retry, a retry that
// recovers, a shed with and without a retry-after hint — and the features
// representation. The per-instance decisions, the calls the transport saw and
// the Report books are pinned as literals read off the tree in which
// Algorithm 2's cloud callback still returned per-slot errors and
// confidences; they hold unchanged now that the callback returns labels and
// one error, which is the evidence that no production transport's behaviour
// moved.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/protocol"
)

// callOutcome scripts one cloud call of contractCloud.
type callOutcome int

const (
	callOK       callOutcome = iota
	callFail                 // whole-call transport error
	callShedHint             // shed carrying a one-hour retry-after hint
	callShedBare             // shed carrying no hint
)

// contractCloud is the in-process client answering each Infer call by the
// next scripted outcome (callOK once the script runs out) and logging the
// size and representation of every request it saw.
type contractCloud struct {
	*InProcClient
	script []callOutcome
	calls  []string
}

func (c *contractCloud) Infer(req protocol.InferRequest) (protocol.InferReply, error) {
	c.calls = append(c.calls, fmt.Sprintf("%d %s", req.Tensor.Dim(0), req.Rep))
	out := callOK
	if len(c.script) > 0 {
		out, c.script = c.script[0], c.script[1:]
	}
	switch out {
	case callFail:
		return protocol.InferReply{}, errors.New("contract: upload lost")
	case callShedHint:
		return protocol.InferReply{}, &protocol.ShedError{RetryAfter: time.Hour, HasLoad: true}
	case callShedBare:
		return protocol.InferReply{}, &protocol.ShedError{}
	}
	return c.InProcClient.Infer(req)
}

// decisionLine renders the fields of a decision the contract decides.
func decisionLine(ds []core.Decision) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		s := fmt.Sprintf("%s %d a%d", d.Exit, d.Pred, d.CloudAttempts)
		if d.CloudFailed {
			s += " failed"
		}
		if d.Shed {
			s += " shed"
		}
		parts[i] = s
	}
	return strings.Join(parts, " | ")
}

// booksLine renders the Report counters the offload path moves.
func booksLine(r Report) string {
	return fmt.Sprintf("n=%d main=%d ext=%d cloud=%d failures=%d bytes=%d raw=%d feat=%d sheds=%d shedFallbacks=%d th=%v",
		r.N, r.Exits[core.ExitMain], r.Exits[core.ExitExtension], r.Exits[core.ExitCloud],
		r.CloudFailures, r.BytesSent, r.RawUploads, r.FeatureUploads, r.ShedEvents, r.ShedFallbacks, r.Threshold)
}

func TestOffloadContractCharacterization(t *testing.T) {
	m, s := tinyMEANet(t, 43)
	x, _ := s.Test.Batch([]int{0, 7, 14, 21, 28, 35, 42, 49})
	cases := []struct {
		name     string
		retries  int
		features bool
		script   []callOutcome
		hold     time.Duration // shed hold the batch must open; 0 = none

		decisions string
		calls     string
		books     string
	}{
		{
			name: "success", script: []callOutcome{callOK},
			decisions: "main 5 a0 | main 2 a0 | main 5 a0 | cloud 2 a1 | cloud 2 a1 | cloud 2 a1 | main 2 a0 | cloud 2 a1",
			calls:     "4 raw",
			books:     "n=8 main=4 ext=0 cloud=4 failures=0 bytes=512 raw=4 feat=0 sheds=0 shedFallbacks=0 th=1.78",
		},
		{
			name: "whole-call error, no retry", script: []callOutcome{callFail},
			decisions: "main 5 a0 | main 2 a0 | main 5 a0 | extension 0 a1 failed | extension 0 a1 failed | extension 0 a1 failed | main 2 a0 | extension 0 a1 failed",
			calls:     "4 raw",
			books:     "n=8 main=4 ext=4 cloud=0 failures=4 bytes=512 raw=4 feat=0 sheds=0 shedFallbacks=0 th=1.78",
		},
		{
			name: "whole-call error, one retry", retries: 1, script: []callOutcome{callFail, callFail},
			decisions: "main 5 a0 | main 2 a0 | main 5 a0 | extension 0 a2 failed | extension 0 a2 failed | extension 0 a2 failed | main 2 a0 | extension 0 a2 failed",
			calls:     "4 raw, 4 raw",
			books:     "n=8 main=4 ext=4 cloud=0 failures=4 bytes=1024 raw=8 feat=0 sheds=0 shedFallbacks=0 th=1.78",
		},
		{
			name: "retry then success", retries: 1, script: []callOutcome{callFail, callOK},
			decisions: "main 5 a0 | main 2 a0 | main 5 a0 | cloud 2 a2 | cloud 2 a2 | cloud 2 a2 | main 2 a0 | cloud 2 a2",
			calls:     "4 raw, 4 raw",
			books:     "n=8 main=4 ext=0 cloud=4 failures=0 bytes=1024 raw=8 feat=0 sheds=0 shedFallbacks=0 th=1.78",
		},
		{
			name: "shed with hint", retries: 1, script: []callOutcome{callShedHint}, hold: time.Hour,
			decisions: "main 5 a0 | main 2 a0 | main 5 a0 | extension 0 a0 shed | extension 0 a0 shed | extension 0 a0 shed | main 2 a0 | extension 0 a0 shed",
			calls:     "4 raw",
			books:     "n=8 main=4 ext=4 cloud=0 failures=0 bytes=0 raw=0 feat=0 sheds=1 shedFallbacks=4 th=2.0469999999999997",
		},
		{
			name: "shed without hint", retries: 1, script: []callOutcome{callShedBare}, hold: 50 * time.Millisecond,
			decisions: "main 5 a0 | main 2 a0 | main 5 a0 | extension 0 a0 shed | extension 0 a0 shed | extension 0 a0 shed | main 2 a0 | extension 0 a0 shed",
			calls:     "4 raw",
			books:     "n=8 main=4 ext=4 cloud=0 failures=0 bytes=0 raw=0 feat=0 sheds=1 shedFallbacks=4 th=2.0469999999999997",
		},
		{
			name: "features", features: true, script: []callOutcome{callOK},
			decisions: "main 5 a0 | main 2 a0 | main 5 a0 | cloud 2 a1 | cloud 2 a1 | cloud 2 a1 | main 2 a0 | cloud 2 a1",
			calls:     "4 features",
			books:     "n=8 main=4 ext=0 cloud=4 failures=0 bytes=256 raw=0 feat=4 sheds=0 shedFallbacks=0 th=1.78",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cloud := &contractCloud{InProcClient: tinyPartitionedClient(t, m, 43, 6), script: tc.script}
			cost := testCost()
			cost.FeatureBytes = 64
			rt, err := NewRuntime(m, core.Policy{Threshold: 1.78, UseCloud: true, CloudRetries: tc.retries}, cloud, cost)
			if err != nil {
				t.Fatal(err)
			}
			if tc.features {
				if err := rt.SetOffloadMode(OffloadFeatures); err != nil {
					t.Fatal(err)
				}
			}
			before := time.Now()
			dec, err := rt.Classify(x)
			after := time.Now()
			if err != nil {
				t.Fatal(err)
			}
			got := [3]string{decisionLine(dec), strings.Join(cloud.calls, ", "), booksLine(rt.Report())}
			if want := [3]string{tc.decisions, tc.calls, tc.books}; got != want {
				t.Errorf("decisions/calls/books\n got %q\nwant %q", got, want)
			}
			rt.mu.Lock()
			until := rt.shedUntil
			rt.mu.Unlock()
			if tc.hold == 0 && !until.IsZero() {
				t.Errorf("no shed, yet a hold until %v", until)
			}
			if tc.hold > 0 && (until.Before(before.Add(tc.hold)) || until.After(after.Add(tc.hold))) {
				t.Errorf("hold ends %v after the batch started, want %v", until.Sub(before), tc.hold)
			}
		})
	}
}
