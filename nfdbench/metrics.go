package main

import (
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// kfuncNames are the kfuncs whose per-call metrics are reported by
// name: every kfunc the workloads' programs call (cuckooswitch's
// eNetSTL lookup). Workloads that do not call one report 0.
var kfuncNames = []string{"enetstl_hash_fast64", "enetstl_find_u32"}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// admitPrefix is the fixed batch prefix admit_frac is taken over, so
// the value depends on the seed alone, not on how many batches the
// window fitted.
const admitPrefix = 200

// tailQuantiles are the whole-window batch round-trip quantiles the
// run record keeps.
var tailQuantiles = []float64{0.5, 0.9, 0.95, 0.99}

// subWindowTail is the median, across the window's spanBatches-batch
// sub-windows, of each sub-window's p90 batch round trip. On a shared
// host the speed of each vCPU changes every few seconds as neighbours
// come and go, and consecutive batches may run on different vCPUs: the
// p90 of a whole window moves with how much of it a burst covered, and
// a low quantile across sub-windows with how much of it ran on a fast
// vCPU. The median across short sub-windows is moved by neither unless
// it lasts most of the window.
func subWindowTail(rtts []float64) float64 {
	var p90s []float64
	for i := 0; i+spanBatches <= len(rtts); i += spanBatches {
		w := append([]float64(nil), rtts[i:i+spanBatches]...)
		sort.Float64s(w)
		p90s = append(p90s, quantile(w, 0.9))
	}
	return median(p90s)
}

// endToEnd computes the user-visible metrics of a timed pass.
func endToEnd(o *outcome, win window, liveHeapBytes uint64, setupSecs []float64) map[string]metric {
	rtts := append([]float64(nil), win.rttMs...)
	sort.Float64s(rtts)
	pkts := float64(win.packets)
	return map[string]metric{
		"throughput_pps":       {median(win.pps), "1/s"},
		"batch_latency_p50_ms": {quantile(rtts, 0.50), "ms"},
		"batch_latency_p90_ms": {subWindowTail(win.rttMs), "ms"},
		"cpu_ns_per_pkt":       {median(win.cpuPerPkt), "ns/pkt"},
		"allocs_per_pkt":       {div(float64(win.mallocs), pkts), "count/pkt"},
		"alloc_bytes_per_pkt":  {div(float64(win.allocBytes), pkts), "B/pkt"},
		"live_heap_mb":         {float64(liveHeapBytes) / (1 << 20), "MiB"},
		"setup_s":              {median(setupSecs), "s"},
		"admit_frac":           {1 - div(float64(o.shed), float64(o.sent)), "ratio"},
	}
}

// breakdown splits the traced round trip of one packet into layer self
// times: the HTTP round trip with the daemon's untraced replay swapped
// for the stack's traced one.
type breakdown struct {
	NFD     float64 `json:"nfd"`
	Runtime float64 `json:"runtime"`
	Pktgen  float64 `json:"pktgen"`
	Harness float64 `json:"harness"`
	Guard   float64 `json:"guard"`
	VM      float64 `json:"vm"`
}

func (t tracedTotals) breakdown() breakdown {
	p := float64(t.packets)
	return breakdown{
		NFD:     div(float64(t.rtt-t.server-t.build-t.shard), p),
		Runtime: div(float64(t.build), p),
		Pktgen:  div(float64(t.shard), p),
		Harness: div(float64(t.replay-t.guard-(t.inst-t.guardInst)), p),
		Guard:   div(float64(t.guard-t.guardInst), p),
		VM:      div(float64(t.inst), p),
	}
}

func (b breakdown) total() float64 {
	return b.NFD + b.Runtime + b.Pktgen + b.Harness + b.Guard + b.VM
}

// perLayer computes the per-layer metrics from the traced window, the
// count-pass ledger and the untraced window.
func perLayer(t tracedTotals, lg *ledger, plain window) map[string]metric {
	untracedPps := float64(plain.packets) / plain.wall.Seconds()
	p := float64(t.packets)
	c := lg.Counts
	lp := float64(c.Packets)
	sum := func(m map[string]uint64, keep func(string) bool) float64 {
		var s float64
		for k, v := range m {
			if keep == nil || keep(k) {
				s += float64(v)
			}
		}
		return s
	}
	// Stats time each call with one clock pair, so every call's time
	// carries the clock's bias; take it out.
	bias := lg.Clock.Bias
	callNs := func(ns, calls float64) float64 { return max(ns-calls*bias, 0) }
	helperCalls, kfuncCalls := sum(c.HelperCalls, nil), sum(c.KfuncCalls, nil)
	helperNs := callNs(sum(lg.HelperNs, nil), helperCalls)
	kfuncNs := callNs(sum(lg.KfuncNs, nil), kfuncCalls)
	isMap := func(name string) bool { return strings.HasPrefix(name, "map_") }
	mapOps := float64(c.MapLookups + c.MapUpdates + c.MapDeletes)
	mapHelperNs := callNs(sum(lg.HelperNs, isMap), sum(c.HelperCalls, isMap))
	// Dispatch time per instruction: Process time minus the helper and
	// kfunc time the count pass measured per packet.
	callNsPerPkt := div(helperNs+kfuncNs, lp)
	admit := 1.0
	if c.GuardPackets > 0 {
		admit = div(float64(c.Admitted), float64(c.GuardPackets))
	}
	hit := 1.0
	if c.MapLookups > 0 {
		hit = 1 - div(float64(c.MapMisses), float64(c.MapLookups))
	}
	b := t.breakdown()
	m := map[string]metric{
		"nfd.roundtrip_ns_per_pkt":     {b.NFD, "ns/pkt"},
		"nfd.decode_ns_per_pkt":        {div(float64(t.decode), p), "ns/pkt"},
		"nfd.body_bytes_per_pkt":       {div(float64(t.bodyBytes), p), "B/pkt"},
		"runtime.build_ns_per_pkt":     {b.Runtime, "ns/pkt"},
		"runtime.build_allocs_per_pkt": {div(float64(c.BuildAllocs), lp), "count/pkt"},
		"pktgen.shard_ns_per_pkt":      {b.Pktgen, "ns/pkt"},
		"harness.replay_ns_per_pkt":    {div(float64(t.replay), p), "ns/pkt"},
		"harness.shard_overlap":        {div(float64(t.replay), float64(t.replayWall)), "ratio"},
		"guard.ns_per_pkt":             {b.Guard, "ns/pkt"},
		"guard.admit_frac":             {admit, "ratio"},
		"guard.shed_enters":            {float64(c.ShedEnters), "count"},
		"vm.ns_per_pkt":                {b.VM, "ns/pkt"},
		"vm.insns_per_pkt":             {div(float64(c.Insns), lp), "insn/pkt"},
		"vm.ns_per_insn":               {div(b.VM-callNsPerPkt, div(float64(t.insns), p)), "ns/insn"},
		"vm.allocs_per_pkt":            {div(float64(c.ReplayAllocs), lp), "count/pkt"},
		"vm.helper_calls_per_pkt":      {div(helperCalls, lp), "call/pkt"},
		"vm.helper_ns_per_call":        {div(helperNs, helperCalls), "ns/call"},
		"core.kfunc_calls_per_pkt":     {div(kfuncCalls, lp), "call/pkt"},
		"core.kfunc_ns_per_call":       {div(kfuncNs, kfuncCalls), "ns/call"},
		"maps.ops_per_pkt":             {div(mapOps, lp), "op/pkt"},
		"maps.hit_ratio":               {hit, "ratio"},
		"maps.evictions_per_pkt":       {div(float64(c.Evictions), lp), "count/pkt"},
		"maps.helper_ns_per_op":        {div(mapHelperNs, mapOps), "ns/op"},
		"obs.stats_ns_per_pkt":         {div(float64(t.obsInst-t.bareInst), p), "ns/pkt"},
		"obs.trace_events_per_pkt":     {div(float64(c.TraceEvents), lp), "event/pkt"},
		"obs.trace_drops":              {float64(c.TraceDrops), "count"},
		"bench.trace_overhead_frac":    {1 - div(tracedPps(t), untracedPps), "ratio"},
		"gc.cycles_per_batch":          {div(float64(plain.gcCycles), float64(plain.batches)), "count/batch"},
		"gc.cpu_frac":                  {div(plain.gcCPU*1e9, float64(plain.cpuNs)), "ratio"},
	}
	for _, k := range kfuncNames {
		m["core.kfunc_calls_per_pkt."+k] = metric{div(float64(c.KfuncCalls[k]), lp), "call/pkt"}
		calls := float64(c.KfuncCalls[k])
		m["core.kfunc_ns_per_call."+k] = metric{div(callNs(float64(lg.KfuncNs[k]), calls), calls), "ns/call"}
	}
	return m
}

// tracedPps is the throughput of the traced path: packets over the
// summed round trips with the daemon's untraced replay replaced by the
// stack's traced replay of the same batches.
func tracedPps(t tracedTotals) float64 {
	return div(float64(t.packets), float64(t.rtt-t.server+t.replay)/1e9)
}
