package main

import (
	"testing"
	"time"
)

func sp(start, end int64) span { return span{Start: start, End: end} }

func TestSelfTime(t *testing.T) {
	parent := sp(0, 100)
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(10, 20), sp(50, 60)}, 80},
		{"overlapping counted once", []span{sp(10, 40), sp(30, 60)}, 50},
		{"nested inside another child", []span{sp(10, 60), sp(20, 30)}, 50},
		{"clipped to the parent", []span{sp(-20, 10), sp(90, 130)}, 80},
		{"outside the parent", []span{sp(100, 120)}, 100},
		{"parallel siblings covering all", []span{sp(0, 70), sp(20, 100), sp(40, 50)}, 0},
		{"mixed", []span{sp(10, 40), sp(30, 60), sp(80, 120)}, 30},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	now := time.Now()
	if id := tr.add("x", -1, 0, now, now); id != -1 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	tr.close(tr.open("y", -1, 0))
}
