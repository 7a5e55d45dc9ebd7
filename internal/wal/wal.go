// Package wal is cindserve's durability layer: per-dataset directories
// holding the constraint spec, periodic CSV snapshots of the instance, and
// an append-only write-ahead log of applied delta batches.
//
// The WAL is a sequence of frames, each
//
//	[u32le payload length][u32le IEEE CRC32 of payload][payload]
//
// appended with a single write. A process killed mid-append leaves a torn
// tail — a short header, a short payload, or a payload whose CRC does not
// match — which Decode reports as a clean truncation point: every frame
// before it is intact (the log is append-only, so a valid prefix is exactly
// the state some earlier instant of the process had durably written), and
// OpenLog truncates the file there rather than replaying a corrupt record.
// Arbitrary corruption therefore shortens the log, never misparses it; the
// FuzzWALDecode harness pins that property.
//
// Durability is governed by a Policy: SyncAlways fsyncs after every append
// (a batch acknowledged is a batch on stable storage), SyncInterval fsyncs
// at most once per interval (bounded loss of acknowledged batches in
// exchange for the hot path skipping the fsync), SyncOff leaves flushing to
// the operating system.
//
// The Store arranges dataset directories so that creation and deletion are
// atomic at the filesystem level: a dataset is assembled in a hidden temp
// directory and renamed into place, and removed by renaming out of place
// before deleting — a crash at any instant leaves either the whole dataset
// or none of it, plus hidden debris that the next OpenStore sweeps.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// frameHeader is the fixed frame prefix: u32le length + u32le CRC32.
const frameHeader = 8

// FrameHeader is the size of the prefix SealFrame fills.
const FrameHeader = frameHeader

// MaxRecord bounds one record's payload. A length field above it is treated
// as corruption (truncation point), so a flipped bit in a length can never
// make recovery attempt a multi-gigabyte allocation.
const MaxRecord = 64 << 20

// SyncMode selects when appends reach stable storage.
type SyncMode uint8

const (
	// SyncAlways fsyncs after every append.
	SyncAlways SyncMode = iota
	// SyncInterval fsyncs at most once per Policy.Interval, riding on
	// appends (a timer covers the final append of a burst).
	SyncInterval
	// SyncOff never fsyncs; the OS flushes when it pleases.
	SyncOff
)

// String renders the mode as its flag spelling.
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("syncmode(%d)", uint8(m))
}

// DefaultSyncInterval is the SyncInterval period when none is given.
const DefaultSyncInterval = 100 * time.Millisecond

// Policy is a sync mode plus its interval (SyncInterval only).
type Policy struct {
	Mode     SyncMode
	Interval time.Duration
}

// ParsePolicy parses the -fsync flag forms: "always", "off", "interval"
// (the default interval), or a Go duration like "250ms" (interval mode with
// that period).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return Policy{Mode: SyncAlways}, nil
	case "off":
		return Policy{Mode: SyncOff}, nil
	case "interval":
		return Policy{Mode: SyncInterval, Interval: DefaultSyncInterval}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return Policy{}, fmt.Errorf("wal: bad fsync policy %q (want always, interval, off, or a positive duration)", s)
	}
	return Policy{Mode: SyncInterval, Interval: d}, nil
}

// Counters aggregates the durability layer's observable activity; one value
// is shared by every log and snapshot of a Store, for surfacing via expvar.
type Counters struct {
	Appends         atomic.Int64 // WAL records appended
	Fsyncs          atomic.Int64 // fsyncs issued on WAL files
	ReplayedBatches atomic.Int64 // records replayed at recovery
	Snapshots       atomic.Int64 // snapshots written
	TornTails       atomic.Int64 // torn WAL tails truncated at open
}

// AppendFrame writes one framed record to w and returns the bytes written.
// The frame is assembled in one buffer and issued as a single Write, so a
// crash tears at most the tail of one frame.
func AppendFrame(w io.Writer, payload []byte) (int, error) {
	if len(payload) > MaxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecord %d", len(payload), MaxRecord)
	}
	buf := make([]byte, frameHeader+len(payload))
	copy(buf[frameHeader:], payload)
	if err := SealFrame(buf); err != nil {
		return 0, err
	}
	return w.Write(buf)
}

// SealFrame turns frame into one framed record in place: it fills the
// first FrameHeader bytes with the header of the payload that follows
// them. A writer that reserves the header at the front of its buffer
// frames a record without copying it.
func SealFrame(frame []byte) error {
	payload := frame[frameHeader:]
	if len(payload) > MaxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecord %d", len(payload), MaxRecord)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return nil
}

// Record is one decoded WAL record with the file offset its frame starts
// at. End returns the offset just past the frame — the WAL position a
// snapshot taken after this record covers.
type Record struct {
	Offset  int64
	Payload []byte
}

// End returns the offset of the byte after this record's frame.
func (r Record) End() int64 { return r.Offset + frameHeader + int64(len(r.Payload)) }

// Decode scans data as a sequence of frames and returns every intact
// record plus validEnd, the offset of the first byte that is not part of an
// intact frame. validEnd == len(data) means the log ends cleanly; anything
// less marks a torn or corrupt tail that must be truncated, never replayed.
// Decode never fails: corruption is a truncation point, not an error.
func Decode(data []byte) (records []Record, validEnd int64) {
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) < frameHeader {
			return records, off
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n > MaxRecord || int64(len(rest)-frameHeader) < int64(n) {
			return records, off
		}
		payload := rest[frameHeader : frameHeader+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			return records, off
		}
		records = append(records, Record{Offset: off, Payload: payload})
		off += frameHeader + int64(n)
	}
}

// Log is an append-only framed log bound to one file. Append is safe for
// concurrent use; the interval-mode flush timer synchronizes through the
// same mutex.
type Log struct {
	mu       sync.Mutex
	f        *os.File
	size     int64
	policy   Policy
	counters *Counters
	dirty    bool        // unsynced appends outstanding (interval mode)
	timer    *time.Timer // pending interval flush
	closed   bool
}

// OpenLog opens (creating if absent) the framed log at path, validates the
// existing contents, truncates any torn tail, and returns the log
// positioned for appends plus every intact record. counters may be nil.
func OpenLog(path string, policy Policy, counters *Counters) (*Log, []Record, error) {
	if counters == nil {
		counters = &Counters{}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open log: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: read log %s: %w", path, err)
	}
	records, validEnd := Decode(data)
	if validEnd < int64(len(data)) {
		// Torn tail from a crash mid-append: everything before validEnd is
		// intact, everything after is garbage. Truncate so future appends
		// extend the valid prefix instead of burying corruption mid-log.
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail of %s at %d: %w", path, validEnd, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: sync truncated %s: %w", path, err)
		}
		counters.TornTails.Add(1)
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: seek log %s: %w", path, err)
	}
	return &Log{f: f, size: validEnd, policy: policy, counters: counters}, records, nil
}

// Size returns the current end offset — the WAL position a snapshot taken
// now covers.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Append frames payload, writes it, and applies the sync policy. It returns
// the offset the frame starts at. On a failed or short write the file is
// truncated back to the last good frame boundary, so a disk error cannot
// leave a half-frame for healthy appends to land after.
func (l *Log) Append(payload []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("wal: append to closed log")
	}
	off := l.size
	n, err := AppendFrame(l.f, payload)
	if err != nil {
		// Best effort: discard whatever partial frame reached the file.
		l.f.Truncate(off)
		l.f.Seek(off, io.SeekStart)
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(n)
	l.counters.Appends.Add(1)
	switch l.policy.Mode {
	case SyncAlways:
		if err := l.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: fsync: %w", err)
		}
		l.counters.Fsyncs.Add(1)
	case SyncInterval:
		l.dirty = true
		if l.timer == nil {
			interval := l.policy.Interval
			if interval <= 0 {
				interval = DefaultSyncInterval
			}
			l.timer = time.AfterFunc(interval, l.intervalFlush)
		}
	}
	return off, nil
}

// intervalFlush is the SyncInterval timer body: flush outstanding appends
// and re-arm only if more arrive.
func (l *Log) intervalFlush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.timer = nil
	if l.closed || !l.dirty {
		return
	}
	l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.counters.Fsyncs.Add(1)
	return nil
}

// Sync forces outstanding appends to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

// Close flushes (unless SyncOff) and closes the file. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	var err error
	if l.dirty && l.policy.Mode != SyncOff {
		err = l.f.Sync()
		if err == nil {
			l.counters.Fsyncs.Add(1)
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
