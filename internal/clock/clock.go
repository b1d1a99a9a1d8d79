// Package clock is the wall-time seam shared by the serving path, the
// fabric gateway and the chaos injector: each takes a Clock and defaults to
// Wall, and tests inject fakes whose After fires on demand. obs.Clock, which
// stamps journals with int64 ticks, is a different contract.
package clock

import "time"

// Clock is the time source for deadlines, staleness checks and backoff.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

type wall struct{}

func (wall) Now() time.Time                         { return time.Now() }
func (wall) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Wall returns the real-time clock.
func Wall() Clock { return wall{} }
