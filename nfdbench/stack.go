package main

import (
	"fmt"
	"time"

	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/guard"
	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/nfd"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
	"enetstl/internal/trace"
)

// stack is the benchmark's own build of one tenant's module: the same
// CreateRequest composed from the public entry points nfd.Registry.Create
// and nfd.Module.Ingest call (runtime.Under, nfcatalog, guard, the
// stats and recorder attachers), with timers at the guard and instance
// boundaries so each layer's call can be timed or metered.
type stack struct {
	name   string
	shards []*shard
	rec    *trace.Recorder
	// mallocs, when set, reads the process's cumulative allocation
	// count; ingest then counts allocations per layer.
	mallocs func() uint64
	// clk is the clock cost the layer timers correct for.
	clk clockCost
}

// shard is one shard's instance chain: ingress is what ReplayBatch
// drives (the guard timer when guarded, else the instance timer).
type shard struct {
	ingress nf.Instance
	smp     sampler
	inst    *instTimer
	guard   *guardTimer
	g       *guard.Guard
	vms     []*vm.VM
	lru     *maps.LRUHash
	tick    uint64
}

// timeStride is the sampling period of the layer timers: a clock read
// costs about as much as a cheap packet on some hosts, so the timers
// time one packet in timeStride and scale by calls/timed.
const timeStride = 8

// sampler picks the packets a shard's layer timers time. The outermost
// timer draws once per packet (seeded xorshift, so the choice does not
// alias with any period in the trace) and nested timers follow it, so
// every layer times the same packets.
type sampler struct {
	on    bool
	state uint64
	cur   bool
}

func (s *sampler) draw() {
	s.state ^= s.state << 13
	s.state ^= s.state >> 7
	s.state ^= s.state << 17
	s.cur = s.on && s.state%timeStride == 0
}

// layerTimer counts calls into one layer and times the sampled ones.
type layerTimer struct {
	smp   *sampler
	outer bool
	ns    int64
	calls int
	timed int
}

func (t *layerTimer) begin() (time.Time, bool) {
	t.calls++
	if t.outer {
		t.smp.draw()
	}
	if !t.smp.cur {
		return time.Time{}, false
	}
	t.timed++
	return time.Now(), true
}

func (t *layerTimer) end(start time.Time) { t.ns += time.Since(start).Nanoseconds() }

// instTimer times the NF instance's Process: the VM's tier dispatch
// plus its helpers and kfuncs. It delegates VM()/Stages() so the guard
// meters instructions through it.
type instTimer struct {
	nf.Instance
	layerTimer
}

func (t *instTimer) Process(pkt []byte) (uint64, error) {
	start, ok := t.begin()
	v, err := t.Instance.Process(pkt)
	if ok {
		t.end(start)
	}
	return v, err
}

func (t *instTimer) VM() *vm.VM {
	if v, ok := t.Instance.(interface{ VM() *vm.VM }); ok {
		return v.VM()
	}
	return nil
}

func (t *instTimer) Stages() []nf.Instance {
	if s, ok := t.Instance.(interface{ Stages() []nf.Instance }); ok {
		return s.Stages()
	}
	return nil
}

// guardTimer times the guard's ProcessAt, which ReplayBatch calls for
// guard-fronted instances.
type guardTimer struct {
	*guard.Guarded
	layerTimer
}

func (t *guardTimer) ProcessAt(pkt []byte, tick uint64) (uint64, guard.Action, error) {
	start, ok := t.begin()
	v, a, err := t.Guarded.ProcessAt(pkt, tick)
	if ok {
		t.end(start)
	}
	return v, a, err
}

// buildStack constructs req the way nfd.Registry.Create does. stats,
// when non-nil, is attached to every VM in place of the request's own
// stats setting.
func buildStack(req nfd.CreateRequest, stats *vm.Stats) (*stack, error) {
	flavor, err := nf.ParseFlavor(req.Flavor)
	if err != nil {
		return nil, err
	}
	o := req.Options
	if o.PerCPU {
		return nil, fmt.Errorf("stack: per-CPU modules are not modelled")
	}
	seed, err := req.Trace.Build()
	if err != nil {
		return nil, err
	}
	n := max(o.Shards, 1)
	built, err := runtime.Under(o, func() ([]nfcatalog.Built, error) {
		if n == 1 {
			b, err := nfcatalog.BuildFull(req.Name, flavor, seed)
			return []nfcatalog.Built{b}, err
		}
		sh := nfcatalog.NewSharded(req.Name, flavor)
		nfcatalog.PrepareTrace(req.Name, seed)
		out := make([]nfcatalog.Built, n)
		for i, sub := range seed.Shard(n) {
			b, err := sh.BuildFull(i, sub)
			if err != nil {
				return nil, err
			}
			out[i] = b
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	s := &stack{name: req.Name}
	if stats == nil && o.Stats {
		stats = vm.NewStats()
	}
	if t := o.Trace; t != nil {
		s.rec = trace.NewRecorder(t.Config())
	}
	gcfg, guarded := o.GuardConfig()
	for i, b := range built {
		sh := &shard{vms: runtime.VMs(b.Inst)}
		inst := b.Inst
		if stats != nil {
			for _, m := range sh.vms {
				m.SetStats(stats)
			}
			if len(sh.vms) == 0 {
				inst = runtime.Meter(inst, stats)
			}
		}
		if s.rec != nil {
			runtime.AttachRecorder(inst, s.rec)
		}
		if l, ok := b.Inst.(interface{ LRU() *maps.LRUHash }); ok {
			sh.lru = l.LRU()
		}
		sh.smp.state = uint64(i) + 0x9e3779b97f4a7c15
		sh.inst = &instTimer{Instance: inst, layerTimer: layerTimer{smp: &sh.smp, outer: !guarded}}
		sh.ingress = sh.inst
		if guarded {
			sh.g = guard.New(req.Name, i, gcfg)
			b.WireGuard(sh.g)
			sh.guard = &guardTimer{Guarded: sh.g.Wrap(sh.inst), layerTimer: layerTimer{smp: &sh.smp, outer: true}}
			sh.ingress = sh.guard
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// setTiming switches the per-packet timers on or off.
func (s *stack) setTiming(on bool) {
	for _, sh := range s.shards {
		sh.smp.on = on
	}
}

// insns sums retired instructions across the stack's VMs.
func (s *stack) insns() uint64 {
	var n uint64
	for _, sh := range s.shards {
		for _, m := range sh.vms {
			n += m.InsnCount
		}
	}
	return n
}

// phases is one batch's ingest split at the layer entry points.
type phases struct {
	decode, build, shard time.Duration
	replay               []replaySpan // per shard
	// allocs counts heap allocations in decode, build, shard and replay
	// when the stack has an allocation counter set.
	allocs [4]uint64
}

// replaySpan is one shard's ReplayBatch call. guardNs and instNs are
// the guard's and the instance's time in it, estimated from the sampled
// packets with the clock's own cost taken out.
type replaySpan struct {
	start    time.Time
	dur      time.Duration
	guardNs  int64 // 0 when unguarded
	instNs   int64
	guardOps int
	instOps  int
}

// estimate scales a timer's sampled time since the snapshot from to
// all its calls since then, taking out the clock's cost: the bias every
// timed interval carries, and a full clock pair for each interval of
// an inner timer nested in this one's (innerTimed of them).
func (t *layerTimer) estimate(from layerTimer, clk clockCost, innerTimed int) (int64, int) {
	calls, timed := t.calls-from.calls, t.timed-from.timed
	if timed == 0 {
		return 0, calls
	}
	ns := float64(t.ns-from.ns) - float64(timed)*clk.Bias - float64(innerTimed)*clk.Pair
	return int64(max(ns, 0) / float64(timed) * float64(calls)), calls
}

// clockCost is what reading the clock adds to a measured interval:
// Bias is the interval an empty time.Now/time.Since pair measures, Pair
// the whole cost of one pair, which an enclosing interval absorbs.
type clockCost struct {
	Bias float64 `json:"empty_interval_ns"`
	Pair float64 `json:"pair_ns"`
}

// calibrateClock measures clockCost, as the median of a few rounds.
func calibrateClock() clockCost {
	const rounds, n = 7, 10000
	var bias, pair []float64
	for r := 0; r < rounds; r++ {
		var sum int64
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s := time.Now()
			sum += time.Since(s).Nanoseconds()
		}
		pair = append(pair, float64(time.Since(t0).Nanoseconds())/n)
		bias = append(bias, float64(sum)/n)
	}
	return clockCost{Bias: median(bias), Pair: median(pair)}
}

// ingest replays one packets body the way the daemon's handler and
// nfd.Module.Ingest do — strict JSON decode, TraceSpec.Build, the NF's
// op mix unless raw, Trace.Shard across shards, harness.ReplayBatch per
// shard with the guard clock carried between batches — timing each
// step.
func (s *stack) ingest(body []byte) (harness.BatchResult, phases, error) {
	var ph phases
	var total harness.BatchResult
	mark := func() uint64 {
		if s.mallocs == nil {
			return 0
		}
		return s.mallocs()
	}
	m0 := mark()
	t0 := time.Now()
	spec, err := decodeSpec(body)
	ph.decode = time.Since(t0)
	m1 := mark()
	ph.allocs[0] = m1 - m0
	if err != nil {
		return total, ph, err
	}
	t0 = time.Now()
	tr, err := spec.Build()
	ph.build = time.Since(t0)
	m2 := mark()
	ph.allocs[1] = m2 - m1
	if err != nil {
		return total, ph, err
	}
	t0 = time.Now()
	if len(spec.Raw) == 0 {
		nfcatalog.PrepareTrace(s.name, tr)
	}
	subs := []*pktgen.Trace{tr}
	if len(s.shards) > 1 {
		subs = tr.Shard(len(s.shards))
	}
	ph.shard = time.Since(t0)
	ph.replay = make([]replaySpan, len(subs))
	results := make([]harness.BatchResult, len(subs))
	m3 := mark()
	ph.allocs[2] = m3 - m2
	for i, sub := range subs {
		sh := s.shards[i]
		it := sh.inst.layerTimer
		var gt layerTimer
		if sh.guard != nil {
			gt = sh.guard.layerTimer
		}
		start := time.Now()
		res, next, rerr := harness.ReplayBatch(sh.ingress, sub, sh.tick)
		r := replaySpan{start: start, dur: time.Since(start)}
		r.instNs, r.instOps = sh.inst.estimate(it, s.clk, 0)
		if sh.guard != nil {
			r.guardNs, r.guardOps = sh.guard.estimate(gt, s.clk, sh.inst.timed-it.timed)
		}
		ph.replay[i] = r
		sh.tick = next
		results[i] = res
		if rerr != nil && err == nil {
			err = rerr
		}
	}
	ph.allocs[3] = mark() - m3
	total.VerdictMap = map[string]uint64{}
	for _, res := range results {
		total.Packets += res.Packets
		total.Shed += res.Shed
		total.Sampled += res.Sampled
		total.Ns += res.Ns
		for k, v := range res.VerdictMap {
			total.VerdictMap[k] += v
		}
	}
	return total, ph, err
}
