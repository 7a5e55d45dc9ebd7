package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"
)

// sample is one measured operation.
type sample struct {
	lat  time.Duration // closed loop: send to done; open loop: see openLoop
	late time.Duration // generator lateness
	err  error         // the operation failed (non-2xx, transport, not durable)
	// traced marks an operation that recorded client spans.
	traced bool
}

// closedLoop runs op back to back until end: one client that sends its
// next request only when the previous one is done. Lateness is the
// client's own turnaround between two operations.
func closedLoop(end time.Time, op func(i int) sample) []sample {
	var out []sample
	prev := time.Now()
	for i := 0; time.Now().Before(end); i++ {
		start := time.Now()
		s := op(i)
		s.late = start.Sub(prev)
		prev = time.Now()
		out = append(out, s)
	}
	return out
}

// clock is the open loop's time source; tests substitute a fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop sends request i at its due time start+i*interval, for every due
// time before end, over one connection: independent users on a schedule,
// not callers waiting for replies. A request cannot go out before the
// previous one is answered, so a stall delays the requests due behind it,
// and their latency — timed from the due time — carries that wait.
// Lateness is how much later than that the generator itself sent (timer
// granularity, scheduling); it is reported, and taken out of the latency,
// so the generator's own slack is not billed to the system. idle, when not
// nil, runs before the generator waits for request i's due time.
func openLoop(clk clock, start time.Time, interval time.Duration, end time.Time, idle func(i int), send func(i int) error) []sample {
	var out []sample
	prevDone := start
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return out
		}
		if idle != nil {
			idle(i)
		}
		clk.SleepUntil(due)
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		sent := clk.Now()
		err := send(i)
		done := clk.Now()
		prevDone = done
		late := max(0, sent.Sub(ready))
		out = append(out, sample{lat: done.Sub(due) - late, late: late, err: err})
	}
}

// resetPeakRSS restarts the kernel's peak-RSS count, so the peak a run
// reports covers its set-ups and traffic, not the oracle's work before.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS is the process's peak resident set size in MiB (VmHWM).
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		fields := bytes.Fields(sc.Bytes())
		if len(fields) >= 2 && string(fields[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(fields[1]), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
