//go:build !linux

package main

import "time"

// sleeper parks its goroutine for d ns on the runtime timer, which on
// an idle process may wake up to a millisecond late. The lateness is
// measured (loadgen.late_p99_ms) and charged to latency.
type sleeper struct{}

func newSleeper() (*sleeper, error) { return &sleeper{}, nil }

func (s *sleeper) sleep(d int64) error {
	time.Sleep(time.Duration(d))
	return nil
}

func (s *sleeper) close() error { return nil }
