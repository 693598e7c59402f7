// Package vmbench measures the three interpreter tiers — wire-format
// reference loop, predecoded fast path, and the block-compiled jit —
// against each other: the Fig. 3-style instruction micro-benchmarks
// (dispatch mixes, helper/kfunc call paths, map lookups) and the
// Fig. 3 NF catalog in its eBPF flavour. Every comparison runs the
// tiers interleaved within one invocation, best-of-N samples each,
// because on a shared host the noise between invocations dwarfs the
// effect under measurement; only adjacent min-of-N samples are
// comparable. cmd/vmbench renders the results and writes the committed
// BENCH_vm.json artifact.
package vmbench

import (
	"fmt"
	"math"
	"time"

	"enetstl/internal/ebpf/asm"
	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
)

// Config tunes a measurement run.
type Config struct {
	// Reps is the interleaved sample count per mode (best-of; default 5).
	Reps int
	// SampleMs is the minimum duration of one timed sample (default 40).
	SampleMs int
	// Packets is the NF replay trace length (default 8192).
	Packets int
}

func (c Config) withDefaults() Config {
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.SampleMs <= 0 {
		c.SampleMs = 40
	}
	if c.Packets <= 0 {
		c.Packets = 8192
	}
	return c
}

// MicroResult compares the three interpreter tiers on one
// micro-benchmark. Both speedups are relative to the wire loop.
type MicroResult struct {
	Name        string  `json:"name"`
	WireNs      float64 `json:"wire_ns_per_op"`
	FastNs      float64 `json:"predecoded_ns_per_op"`
	JitNs       float64 `json:"jit_ns_per_op"`
	FastSpeedup float64 `json:"predecoded_speedup"`
	JitSpeedup  float64 `json:"jit_speedup"`
}

// NFResult compares the tiers on one Fig. 3 NF (eBPF flavour), plus
// the eNetSTL flavour on the jit tier for the cross-flavour ordering.
// Both speedups are relative to the wire loop.
type NFResult struct {
	NF            string  `json:"nf"`
	WirePPS       float64 `json:"ebpf_wire_pps"`
	FastPPS       float64 `json:"ebpf_predecoded_pps"`
	JitPPS        float64 `json:"ebpf_jit_pps"`
	FastSpeedup   float64 `json:"predecoded_speedup"`
	JitSpeedup    float64 `json:"jit_speedup"`
	ENetSTLPPS    float64 `json:"enetstl_jit_pps"`
	ENetSTLvsEBPF float64 `json:"enetstl_vs_ebpf"`
}

// Report is the full artifact committed as BENCH_vm.json.
type Report struct {
	Note            string        `json:"note"`
	GoMaxProcs      int           `json:"gomaxprocs"`
	Micro           []MicroResult `json:"micro"`
	MicroGeomean    float64       `json:"micro_geomean_predecoded_speedup"`
	MicroJitGeomean float64       `json:"micro_geomean_jit_speedup"`
	Fig3            []NFResult    `json:"fig3_ebpf"`
}

// micro is one generated-program benchmark: prep readies the VM
// (maps, kfuncs) and returns the program emitter. The shapes mirror
// the Benchmark* suite in internal/ebpf/vm/vm_bench_test.go.
type micro struct {
	name string
	prep func(m *vm.VM) func(bb *asm.Builder)
}

func plain(emit func(bb *asm.Builder)) func(m *vm.VM) func(bb *asm.Builder) {
	return func(*vm.VM) func(bb *asm.Builder) { return emit }
}

func micros() []micro {
	return []micro{
		{"dispatch/alu", plain(func(bb *asm.Builder) {
			bb.MovImm(asm.R0, 0)
			bb.MovImm(asm.R7, 0x1234)
			for i := 0; i < 16; i++ {
				bb.AddImm(asm.R0, 3)
				bb.Xor(asm.R0, asm.R7)
				bb.LshImm(asm.R0, 1)
				bb.Add(asm.R0, asm.R7)
			}
			bb.Exit()
		})},
		{"dispatch/branch", plain(func(bb *asm.Builder) {
			bb.MovImm(asm.R0, 0)
			bb.MovImm(asm.R6, 0)
			bb.Label("top")
			bb.AddImm(asm.R0, 5)
			bb.AddImm(asm.R6, 1)
			bb.JmpImm(asm.JLT, asm.R6, 64, "top")
			bb.Exit()
		})},
		{"dispatch/mem", plain(func(bb *asm.Builder) {
			bb.MovImm(asm.R0, 0)
			bb.StoreImm(asm.R10, -8, 0x5a5a5a5a, 8)
			for i := 0; i < 16; i++ {
				bb.Load(asm.R3, asm.R10, -8, 8)
				bb.AndImm(asm.R3, 0xffff)
				bb.Add(asm.R0, asm.R3)
				bb.Store(asm.R10, -16, asm.R0, 8)
			}
			bb.Exit()
		})},
		{"dispatch/mixed", plain(func(bb *asm.Builder) {
			bb.MovImm(asm.R0, 0)
			bb.StoreImm(asm.R10, -8, 7, 8)
			bb.MovImm(asm.R6, 0)
			bb.Label("top")
			bb.JmpImm(asm.JGE, asm.R6, 16, "done")
			bb.Load(asm.R3, asm.R10, -8, 8)
			bb.AndImm(asm.R3, 0xff)
			bb.Add(asm.R0, asm.R3)
			bb.Mov32Imm(asm.R4, 0x100)
			bb.Add32(asm.R0, asm.R4)
			bb.AddImm(asm.R6, 1)
			bb.Ja("top")
			bb.Label("done")
			bb.Exit()
		})},
		{"alu_chain", plain(func(bb *asm.Builder) {
			bb.MovImm(asm.R0, 0)
			for i := 0; i < 64; i++ {
				bb.AddImm(asm.R0, 1)
			}
			bb.Exit()
		})},
		{"helper_call", plain(func(bb *asm.Builder) {
			for i := 0; i < 16; i++ {
				bb.Call(vm.HelperGetPrandomU32)
			}
			bb.Exit()
		})},
		{"map_lookup", func(m *vm.VM) func(bb *asm.Builder) {
			fd := m.RegisterMap(maps.Must(maps.NewArray(8, 8)))
			return func(bb *asm.Builder) {
				bb.StoreImm(asm.R10, -4, 3, 4)
				for i := 0; i < 16; i++ {
					bb.LoadMap(asm.R1, fd)
					bb.Mov(asm.R2, asm.R10).AddImm(asm.R2, -4)
					bb.Call(vm.HelperMapLookup)
				}
				bb.Exit()
			}
		}},
		{"kfunc_call", func(m *vm.VM) func(bb *asm.Builder) {
			m.RegisterKfunc(&vm.Kfunc{
				ID: 999, Name: "nop",
				Impl: func(*vm.VM, uint64, uint64, uint64, uint64, uint64) (uint64, error) {
					return 0, nil
				},
				Meta: vm.KfuncMeta{Ret: vm.RetScalar},
			})
			return func(bb *asm.Builder) {
				for i := 0; i < 16; i++ {
					bb.Kfunc(999)
				}
				bb.Exit()
			}
		}},
	}
}

// sampleProg times prog until the sample lasts at least sampleMs,
// returning ns per Run.
func sampleProg(m *vm.VM, prog *vm.Program, sampleMs int) (float64, error) {
	target := time.Duration(sampleMs) * time.Millisecond
	for n := 64; ; n *= 2 {
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := m.Run(prog, nil); err != nil {
				return 0, err
			}
		}
		if el := time.Since(start); el >= target {
			return float64(el.Nanoseconds()) / float64(n), nil
		}
	}
}

// RunMicros measures every micro-benchmark across all three tiers
// interleaved, best of cfg.Reps samples each. It returns the results
// plus the geomean predecoded-vs-wire and jit-vs-wire speedups.
func RunMicros(cfg Config) ([]MicroResult, float64, float64, error) {
	cfg = cfg.withDefaults()
	var out []MicroResult
	fastLogSum, jitLogSum := 0.0, 0.0
	for _, mc := range micros() {
		build := func(tier vm.Tier) (*vm.VM, *vm.Program, error) {
			m := vm.New()
			m.SetTier(tier)
			bb := asm.New()
			mc.prep(m)(bb)
			prog, err := m.Load(mc.name, bb.MustProgram())
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", mc.name, err)
			}
			// Warm up: steady-state regions, branch history, caches,
			// and (on the jit tier) the lazy block compile.
			for i := 0; i < 4; i++ {
				if _, err := m.Run(prog, nil); err != nil {
					return nil, nil, fmt.Errorf("%s: %w", mc.name, err)
				}
			}
			return m, prog, nil
		}
		wm, wp, err := build(vm.TierWire)
		if err != nil {
			return nil, 0, 0, err
		}
		fm, fp, err := build(vm.TierPredecoded)
		if err != nil {
			return nil, 0, 0, err
		}
		jm, jp, err := build(vm.TierJIT)
		if err != nil {
			return nil, 0, 0, err
		}
		res := MicroResult{
			Name: mc.name, WireNs: math.Inf(1), FastNs: math.Inf(1), JitNs: math.Inf(1)}
		for rep := 0; rep < cfg.Reps; rep++ {
			for _, s := range []struct {
				m    *vm.VM
				p    *vm.Program
				best *float64
			}{{wm, wp, &res.WireNs}, {fm, fp, &res.FastNs}, {jm, jp, &res.JitNs}} {
				ns, err := sampleProg(s.m, s.p, cfg.SampleMs)
				if err != nil {
					return nil, 0, 0, err
				}
				*s.best = math.Min(*s.best, ns)
			}
		}
		res.FastSpeedup = res.WireNs / res.FastNs
		res.JitSpeedup = res.WireNs / res.JitNs
		fastLogSum += math.Log(res.FastSpeedup)
		jitLogSum += math.Log(res.JitSpeedup)
		out = append(out, res)
	}
	n := float64(len(out))
	return out, math.Exp(fastLogSum / n), math.Exp(jitLogSum / n), nil
}

// Fig3NFs lists the NF catalog entries behind the Fig. 3 panels that
// exist in the eBPF flavour (skiplist is paper-P1 unimplementable;
// conntrack is not a Fig. 3 subject).
func Fig3NFs() []string {
	return []string{
		"cuckooswitch", "cmsketch", "nitrosketch", "cuckoofilter", "bloom",
		"vbf", "eiffel", "timewheel", "edf", "tss", "heavykeeper",
		"spacesaving", "daryhash",
	}
}

// RunFig3 measures every Fig. 3 NF in the eBPF flavour on all three
// interpreter tiers (interleaved, best of cfg.Reps passes) plus the
// eNetSTL flavour on the jit tier, for the cross-flavour ordering.
func RunFig3(cfg Config) ([]NFResult, error) {
	cfg = cfg.withDefaults()
	var out []NFResult
	for seed, name := range Fig3NFs() {
		trace := pktgen.Generate(pktgen.Config{
			Flows: 512, Packets: cfg.Packets, ZipfS: 1.1, Seed: int64(8600 + seed)})
		nfcatalog.PrepareTrace(name, trace)
		build := func(flavor nf.Flavor, tier vm.Tier) (nf.Instance, *pktgen.Trace, error) {
			tr := trace.Clone()
			inst, err := nfcatalog.Build(name, flavor, tr)
			if err != nil {
				return nil, nil, fmt.Errorf("%s/%v: %w", name, flavor, err)
			}
			v, ok := inst.(interface{ VM() *vm.VM })
			if !ok || v.VM() == nil {
				return nil, nil, fmt.Errorf("%s/%v: not VM-backed", name, flavor)
			}
			v.VM().SetTier(tier)
			if _, _, err := harness.ReplayBatch(inst, tr, 0); err != nil { // warm-up pass
				return nil, nil, err
			}
			return inst, tr, nil
		}
		wi, wt, err := build(nf.EBPF, vm.TierWire)
		if err != nil {
			return nil, err
		}
		fi, ft, err := build(nf.EBPF, vm.TierPredecoded)
		if err != nil {
			return nil, err
		}
		ji, jt, err := build(nf.EBPF, vm.TierJIT)
		if err != nil {
			return nil, err
		}
		ei, et, err := build(nf.ENetSTL, vm.TierJIT)
		if err != nil {
			return nil, err
		}
		res := NFResult{NF: name}
		for rep := 0; rep < cfg.Reps; rep++ {
			for _, s := range []struct {
				inst  nf.Instance
				trace *pktgen.Trace
				best  *float64
			}{{wi, wt, &res.WirePPS}, {fi, ft, &res.FastPPS},
				{ji, jt, &res.JitPPS}, {ei, et, &res.ENetSTLPPS}} {
				r, _, err := harness.ReplayBatch(s.inst, s.trace, 0)
				if err != nil {
					return nil, err
				}
				*s.best = math.Max(*s.best, r.PPS())
			}
		}
		res.FastSpeedup = res.FastPPS / res.WirePPS
		res.JitSpeedup = res.JitPPS / res.WirePPS
		res.ENetSTLvsEBPF = res.ENetSTLPPS / res.JitPPS
		out = append(out, res)
	}
	return out, nil
}
