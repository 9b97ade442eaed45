// Package protocol mirrors the real protocol package's shed sentinel.
package protocol

import "errors"

// ErrShed mirrors protocol.ErrShed: the cloud shed the request under load.
var ErrShed = errors.New("protocol: cloud shed the request")
