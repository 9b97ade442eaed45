package edge

import (
	"errors"
	"fmt"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/protocol"
)

// ErrShed is the sentinel matched by errors.Is when the cloud answered an
// offload with a shed frame (admission control refused the work). It aliases
// core.ErrShed so the retry loop in core.InferBatchedRep recognizes
// transport-surfaced sheds — stopping instead of re-uploading into a
// saturated server — without core importing this package.
var ErrShed = core.ErrShed

// ShedError is the typed error a shed frame surfaces as: the server's
// RetryAfter hint (how long the edge should keep qualifying instances local
// before re-offering load) and the load snapshot that triggered the refusal.
// errors.Is(err, ErrShed) holds for any error wrapping a ShedError.
type ShedError struct {
	// RetryAfter is the server's back-off hint. Always ≥ 0 as surfaced by
	// the built-in transports (negative wire values are clamped).
	RetryAfter time.Duration
	// Load is the congestion snapshot a shed frame carries; HasLoad is false
	// on a shed a router synthesized for a whole fleet (see MultiClient).
	Load    protocol.LoadStatus
	HasLoad bool
}

// Error renders the refusal with its hint.
func (e *ShedError) Error() string {
	return fmt.Sprintf("edge: cloud shed the request (retry after %v, queue %d, active %d)",
		e.RetryAfter, e.Load.QueueDepth, e.Load.Active)
}

// Unwrap ties the typed error into the sentinel chain: errors.Is(err,
// ErrShed) — and core's attempt loop — see through any %w wrapping the
// transports add.
func (e *ShedError) Unwrap() error { return core.ErrShed }

// shedRetryAfter is how long a shed asks its sender to stay away: the hint it
// carried, or the default hold when it carried none.
func shedRetryAfter(err error) time.Duration {
	var se *ShedError
	if errors.As(err, &se) && se.RetryAfter > 0 {
		return se.RetryAfter
	}
	return protocol.DefaultRetryAfter
}

// RetryAfterHint exposes the hold hint to packages that must not import edge
// (cloud's stage servers assert for the method via errors.As to propagate a
// downstream shed's timing upstream).
func (e *ShedError) RetryAfterHint() time.Duration { return e.RetryAfter }
