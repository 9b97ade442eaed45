// Package sc exercises sentinelcmp: the `==` vs errors.Is shed-error shapes
// from the PR 5/6 accounting chain.
package sc

import (
	"errors"

	"protocol"
)

var ErrLocal = errors.New("sc: local sentinel")

var notAnError = 7

func cmp(err error) bool {
	if err == protocol.ErrShed { // want `sentinel error protocol\.ErrShed compared with ==`
		return true
	}
	if protocol.ErrShed == err { // want `sentinel error protocol\.ErrShed compared with ==`
		return true
	}
	if err != ErrLocal { // want `sentinel error ErrLocal compared with !=`
		return false
	}
	if err == nil { // nil comparisons stay legal
		return false
	}
	return errors.Is(err, protocol.ErrShed) // the blessed form
}

func sw(err error, n int) int {
	switch err {
	case protocol.ErrShed: // want `sentinel error protocol\.ErrShed matched by switch case`
		return 1
	case nil:
		return 0
	}
	switch { // tagless switch over errors.Is is the blessed form
	case errors.Is(err, ErrLocal):
		return 2
	}
	switch n { // non-error switches are out of scope
	case notAnError:
		return 4
	}
	return 3
}
