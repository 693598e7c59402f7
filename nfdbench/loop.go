package main

import (
	"fmt"

	"enetstl/internal/harness"
	goruntime "runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// warmRounds is how many batches per tenant each pass sends before its
// timed window: the lazy jit compile and first-touch allocations happen
// there, not in the window.
const warmRounds = 4

// spanBatches is the length of the sub-windows the throughput and CPU
// rates and the tail latency are taken over; each reported value is a
// median over them, so a burst of host noise in a few of them does not
// move it.
const spanBatches = 16

// window is what a closed-loop timed window measured.
type window struct {
	batches    int
	packets    int
	wall       time.Duration
	rttMs      []float64
	cpuNs      int64
	mallocs    uint64
	allocBytes uint64
	// pps and cpuPerPkt hold one rate per full sub-window.
	pps       []float64
	cpuPerPkt []float64
	// gcCycles and gcCPU are the collector's cycles and CPU seconds.
	gcCycles uint32
	gcCPU    float64
}

// gcCPUSeconds is the collector's cumulative CPU time, as the runtime
// estimates it.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// send posts the next batch of o's sequence to its tenant's module.
func send(d *daemon, w *workload, ids []string, o *outcome) (harness.BatchResult, time.Duration) {
	t, body := w.batch(o.batches())
	res, rtt, err := d.post(ids[t], body)
	o.record(res, err) // a failure is counted by the reference check
	return res, rtt
}

// closedLoop sends batches one at a time, each only after the previous
// tally came back, until seconds have passed, at least minBatches were
// sent and every tenant received as many batches as the others.
func closedLoop(d *daemon, w *workload, ids []string, o *outcome, seconds float64, minBatches int) window {
	var ms0, ms1 goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	cpu0 := cpuNs()
	start := time.Now()
	var win window
	spanStart, spanCPU, spanPkts := start, cpu0, 0
	limit := time.Duration(seconds * float64(time.Second))
	for time.Since(start) < limit || win.batches < minBatches || win.batches%spanBatches != 0 {
		res, rtt := send(d, w, ids, o)
		pkts := res.Packets
		win.batches++
		win.packets += pkts
		spanPkts += pkts
		win.rttMs = append(win.rttMs, float64(rtt.Nanoseconds())/1e6)
		if win.batches%spanBatches == 0 {
			now, cpu := time.Now(), cpuNs()
			win.pps = append(win.pps, float64(spanPkts)/now.Sub(spanStart).Seconds())
			win.cpuPerPkt = append(win.cpuPerPkt, float64(cpu-spanCPU)/float64(spanPkts))
			spanStart, spanCPU, spanPkts = now, cpu, 0
		}
	}
	win.wall = time.Since(start)
	win.cpuNs = cpuNs() - cpu0
	win.gcCPU = gcCPUSeconds() - gc0
	goruntime.ReadMemStats(&ms1)
	win.gcCycles = ms1.NumGC - ms0.NumGC
	win.mallocs = ms1.Mallocs - ms0.Mallocs
	win.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return win
}

// liveHeap is the heap still reachable after forced collections; the
// second one frees what sync.Pool victim caches kept through the first.
func liveHeap() uint64 {
	var ms goruntime.MemStats
	goruntime.GC()
	goruntime.GC()
	goruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setupCycles times repeated create → first batch → delete cycles of
// the workload's modules. Each cycle is an outcome of the first batch
// of every tenant against fresh modules.
func setupCycles(d *daemon, w *workload, n int) ([]float64, []*outcome, error) {
	var secs []float64
	var outs []*outcome
	for c := 0; c < n; c++ {
		o := &outcome{pass: fmt.Sprintf("setup-%d", c)}
		start := time.Now()
		ids, err := d.createAll(w)
		if err != nil {
			return nil, nil, err
		}
		for range ids {
			send(d, w, ids, o)
		}
		if err := d.removeAll(ids); err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		outs = append(outs, o)
	}
	return secs, outs, nil
}

// loopPass is one closed-loop pass over fresh modules: warm-up, the
// timed window, then end-of-pass estimates and the live heap with the
// modules still loaded.
func loopPass(d *daemon, w *workload, name string, seconds float64, minBatches int) (*outcome, window, uint64, error) {
	o := &outcome{pass: name}
	ids, err := d.createAll(w)
	if err != nil {
		return nil, window{}, 0, err
	}
	for i := 0; i < warmRounds*len(ids); i++ {
		send(d, w, ids, o)
	}
	win := closedLoop(d, w, ids, o, seconds, minBatches)
	heap := liveHeap()
	for t, tn := range w.tenants {
		for _, q := range tn.probes {
			est, ok, err := d.estimate(ids[t], q)
			if err != nil {
				return nil, window{}, 0, err
			}
			o.probes = append(o.probes, estimateProbe{tenant: t, query: q, est: est, ok: ok})
		}
	}
	return o, win, heap, d.removeAll(ids)
}
