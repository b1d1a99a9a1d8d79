package main

import (
	"sync"
	"time"
)

// reqTiming is one open-loop request's timeline. Latency runs from due,
// the moment the schedule says the request is sent, so a stall that delays
// later requests — a busy connection, a late generator — counts against
// them instead of vanishing from the record.
type reqTiming struct {
	due     time.Time // when the schedule says to send
	sent    time.Time // when the generator handed the request off
	gotConn time.Time // when the request had a connection to go out on
	done    time.Time // when the whole response had arrived
	status  int
	body    []byte
	err     error
}

func (t *reqTiming) latency() time.Duration  { return t.done.Sub(t.due) }
func (t *reqTiming) lateness() time.Duration { return t.sent.Sub(t.due) }

// openLoop sends n requests at a fixed interval from start, each on its own
// goroutine, whether or not earlier ones have been answered; do performs
// request i and fills in its gotConn, done, status, body and err. It
// returns once every request has completed.
func openLoop(start time.Time, interval time.Duration, n int, do func(i int, t *reqTiming)) []reqTiming {
	timings := make([]reqTiming, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		t := &timings[i]
		t.due = start.Add(time.Duration(i) * interval)
		if d := time.Until(t.due); d > 0 {
			time.Sleep(d)
		}
		t.sent = time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			do(i, t)
		}(i)
	}
	wg.Wait()
	return timings
}

// generatorLateness summarises how far behind schedule requests left, in
// ms, and says whether the generator kept up: a run whose requests left
// late carried less load than its rate claims and is not valid.
func generatorLateness(ts []reqTiming) (p50, max float64, keptUp bool) {
	late := make([]float64, len(ts))
	for i := range ts {
		late[i] = ms(ts[i].lateness())
	}
	p50, max = median(late), maxOf(late)
	return p50, max, p50 <= maxLatenessP50MS && max <= maxLatenessMS
}

// Lateness limits beyond which a run is marked invalid. The Go scheduler
// can hold a woken goroutine for a time slice (~10 ms) while every core
// runs jobs, so single late sends are normal; a late median is not.
const (
	maxLatenessP50MS = 5
	maxLatenessMS    = 250
)
