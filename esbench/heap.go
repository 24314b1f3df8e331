package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// heapSampler tracks the high-water mark of live Go heap while a run is
// in flight, by reading /gc/heap/live:bytes (the heap marked live by the
// most recent GC cycle) every heapSamplePeriod. start forces a GC first,
// so the previous run's garbage is gone and the baseline is the
// benchmark's own resident state, which finish subtracts.
type heapSampler struct {
	stop     chan struct{}
	wg       sync.WaitGroup
	baseline uint64
	peak     uint64
}

const heapSamplePeriod = 5 * time.Millisecond

// prefaultBytes is how much heap the process touches before any timed
// work: more than any workload's peak heap footprint.
const prefaultBytes = 768 << 20

// prefault touches prefaultBytes of Go heap and frees it, so the runs
// reuse memory the process already holds instead of faulting in fresh
// pages. On virtual machines whose guest memory is backed lazily, first
// touches are slow enough to inflate a fresh process's first runs by a
// quarter.
func prefault() {
	buf := make([]byte, prefaultBytes)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	runtime.KeepAlive(buf)
	runtime.GC()
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), baseline: liveHeap()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(heapSamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.peak = max(h.peak, liveHeap())
			}
		}
	}()
	return h
}

// finish stops sampling and returns the run's peak live heap above the
// baseline, in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	h.peak = max(h.peak, liveHeap())
	if h.peak < h.baseline {
		return 0
	}
	return float64(h.peak-h.baseline) / (1 << 20)
}
