package main

import (
	"crypto/sha256"
	"sort"
	"time"
)

// The host's speed drifts: on a shared 2-CPU VM the same fixed loop ran 9%
// slower in one process than in the next, and the medians of ten runs of
// one workload moved by 27% between sets taken an hour apart. Within one
// process the kernel's median over 30 back-to-back calls moved by up to 20%
// between the start of a run and its end, so sampling the speed only
// before and after a run does not follow it. Every timing an untraced run
// reports is therefore scaled to a reference speed: the run times a fixed
// kernel between its operations, and multiplies each measured time by
// refKernel over the kernel's median time in the run. A change to the
// server cannot change the kernel — it is standard-library code that
// allocates nothing and runs from a warm cache — so the scaling takes out
// the host's speed and leaves the server's. On eight 10 s runs per
// workload it halved the spread of p50_ms (13–19% as measured, 6–10%
// scaled).

// refKernel is the kernel's time at the reference speed: its median on the
// 2-CPU Xeon VM the bounds were measured on.
const refKernel = 400 * time.Microsecond

var (
	kernelBuf  = make([]byte, 8<<10)
	kernelInts = make([]int, 4096)
	kernelSum  [sha256.Size]byte
)

// kernel hashes 160 KiB and sorts 4096 pseudo-random ints, allocating
// nothing, so it neither triggers nor assists the collector.
func kernel() {
	for i := 0; i < 20; i++ {
		kernelSum = sha256.Sum256(kernelBuf)
	}
	x := uint32(kernelSum[0])
	for i := range kernelInts {
		x = x*1664525 + 1013904223
		kernelInts[i] = int(x >> 8)
	}
	sort.Ints(kernelInts)
}

var warmSink int

// warm reads the kernel's buffers into the CPU cache before a timed run:
// the operation before it evicts them, by how much depends on the server's
// memory footprint, and a kernel timed cold would charge part of that
// footprint to the host's speed.
func warm() {
	n := 0
	for _, b := range kernelBuf {
		n += int(b)
	}
	for _, v := range kernelInts {
		n += v
	}
	warmSink = n
}

// speed collects kernel timings from one goroutine. A nil *speed samples
// nothing.
type speed struct{ samples []time.Duration }

func (s *speed) sample() {
	if s == nil {
		return
	}
	warm()
	start := time.Now()
	kernel()
	s.samples = append(s.samples, time.Since(start))
}

// scale is the factor that converts a time measured while s sampled to the
// reference speed.
func (s *speed) scale() float64 {
	return float64(refKernel) / median(durationsFloat(s.samples))
}
