package main

import "time"

// The benchmark measures wall-clock time by design. These helpers are the
// only places it reads the clock or sleeps, so the determinism linter's
// escape hatches sit in one file.

// now reads the wall clock.
func now() time.Time {
	//lint:allow nowallclock the benchmark measures wall-clock time; nothing it reads feeds a scheduling decision
	return time.Now()
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return now().Sub(t).Seconds() }

// sleep pauses the calling goroutine.
func sleep(d time.Duration) {
	//lint:allow nowallclock the load generator and the readiness probes pace themselves on the wall clock
	time.Sleep(d)
}
