package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced pass: a client request phase
// (part a) or one call into a module's public API (part b). Spans of one
// request share Req; Parent is the id of the enclosing span, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced operations share the traced code path.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records [start, end) under name and returns the span's id.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: int64(start.Sub(t.epoch)),
		End: int64(end.Sub(t.epoch)), Parent: parent, Req: req})
	return id
}

// open starts a span that close ends, for a span whose children are
// recorded while it runs.
func (t *tracer) open(name string, parent int, req int64) int {
	now := time.Now()
	return t.add(name, parent, req, now, now)
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(time.Since(t.epoch))
}

// time runs f inside a span and returns its duration.
func (t *tracer) time(name string, parent int, req int64, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, parent, req, start, end)
	return end.Sub(start)
}

// durations returns the durations of every span called name, in record
// order.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children (parallel calls) are counted once:
// the union of their intervals, clipped to the parent, is subtracted.
func selfTime(p span, children []span) time.Duration {
	var kids [][2]int64
	for _, s := range children {
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if lo < hi {
			kids = append(kids, [2]int64{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	covered := int64(0)
	curLo, curHi := int64(0), int64(0)
	for i, k := range kids {
		switch {
		case i == 0 || k[0] > curHi:
			covered += curHi - curLo
			curLo, curHi = k[0], k[1]
		case k[1] > curHi:
			curHi = k[1]
		}
	}
	covered += curHi - curLo
	return p.dur() - time.Duration(covered)
}
