package main

import (
	"testing"
	"time"
)

// fakeClock advances only when the loop sleeps or a request is served.
// overshoot[i] makes the i-th SleepUntil wake that much late, standing in
// for a generator the scheduler ran late.
type fakeClock struct {
	now       time.Time
	sleeps    int
	overshoot map[int]time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
	c.now = c.now.Add(c.overshoot[c.sleeps])
	c.sleeps++
}

const ms1 = time.Millisecond

// runFake drives openLoop at one request per 2ms for 20ms; request i takes
// service[i] (default 0.5ms) of fake time.
func runFake(t *testing.T, clk *fakeClock, service map[int]time.Duration) []sample {
	t.Helper()
	start := clk.now
	return openLoop(clk, start, 2*ms1, start.Add(20*ms1), nil, func(i int) error {
		d, ok := service[i]
		if !ok {
			d = ms1 / 2
		}
		clk.now = clk.now.Add(d)
		return nil
	})
}

func TestOpenLoopSteady(t *testing.T) {
	ss := runFake(t, &fakeClock{now: time.Unix(0, 0)}, nil)
	if len(ss) != 10 {
		t.Fatalf("%d requests in 20ms at 2ms, want 10", len(ss))
	}
	for i, s := range ss {
		if s.lat != ms1/2 || s.late != 0 {
			t.Errorf("request %d: latency %v, lateness %v; want 500µs, 0", i, s.lat, s.late)
		}
	}
}

// A server stall delays the requests queued behind it: their latency,
// timed from the due time, carries the wait, while the generator itself
// was never late.
func TestOpenLoopServerStall(t *testing.T) {
	ss := runFake(t, &fakeClock{now: time.Unix(0, 0)}, map[int]time.Duration{2: 7 * ms1})
	// Request 2 is due at 4ms and done at 11ms; 3 (due 6ms) is sent at
	// 11ms, done at 11.5ms; 4 (due 8ms) at 11.5ms, done at 12ms; 5 is due
	// at 10ms, sent at 12ms, done at 12.5ms; 6 is due at 12ms, sent at
	// 12.5ms; 7 is due at 14ms, after the backlog cleared.
	want := []time.Duration{ms1 / 2, ms1 / 2, 7 * ms1, 5500 * time.Microsecond, 4 * ms1,
		2500 * time.Microsecond, ms1, ms1 / 2, ms1 / 2, ms1 / 2}
	for i, s := range ss {
		if s.lat != want[i] || s.late != 0 {
			t.Errorf("request %d: latency %v, lateness %v; want %v, 0", i, s.lat, s.late, want[i])
		}
	}
}

// A generator stall shows up as lateness, which the stalled request's
// latency excludes, and inflates the latency of the requests it pushed
// behind schedule.
func TestOpenLoopGeneratorStall(t *testing.T) {
	ss := runFake(t, &fakeClock{now: time.Unix(0, 0), overshoot: map[int]time.Duration{2: 5 * ms1}}, nil)
	// Request 2 is due at 4ms but sent at 9ms (5ms late) and done at
	// 9.5ms; 3 (due 6ms) goes at 9.5ms and is done at 10ms; 4 (due 8ms)
	// at 10ms, done at 10.5ms; 5 is due at 10ms, sent at 10.5ms.
	wantLat := []time.Duration{ms1 / 2, ms1 / 2, ms1 / 2, 4 * ms1, 2500 * time.Microsecond,
		ms1, ms1 / 2, ms1 / 2, ms1 / 2, ms1 / 2}
	for i, s := range ss {
		wantLate := time.Duration(0)
		if i == 2 {
			wantLate = 5 * ms1
		}
		if s.lat != wantLat[i] || s.late != wantLate {
			t.Errorf("request %d: latency %v, lateness %v; want %v, %v", i, s.lat, s.late, wantLat[i], wantLate)
		}
	}
}
