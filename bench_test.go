// Package enetstl_test holds the benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (§6), plus
// the design-choice ablations listed in DESIGN.md §4. Sub-benchmarks
// are named by configuration and flavour, so
//
//	go test -bench=Fig3e -benchmem
//
// prints the series behind one figure, and cmd/enetstl-bench renders
// the same experiments as paper-style tables.
package enetstl_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"enetstl/internal/apps"
	"enetstl/internal/harness"
	"enetstl/internal/listbuckets"
	"enetstl/internal/memwrapper"
	"enetstl/internal/nf"
	"enetstl/internal/nf/cmsketch"
	"enetstl/internal/nf/cuckoofilter"
	"enetstl/internal/nf/cuckooswitch"
	"enetstl/internal/nf/edf"
	"enetstl/internal/nf/eiffel"
	"enetstl/internal/nf/heavykeeper"
	"enetstl/internal/nf/nitrosketch"
	"enetstl/internal/nf/skiplist"
	"enetstl/internal/nf/timewheel"
	"enetstl/internal/nf/tss"
	"enetstl/internal/nf/vbf"
	"enetstl/internal/pktgen"
)

var allFlavors = []nf.Flavor{nf.Kernel, nf.EBPF, nf.ENetSTL}

// runTrace drives b.N packets from trace through inst.
func runTrace(b *testing.B, inst nf.Instance, trace *pktgen.Trace) {
	b.Helper()
	n := len(trace.Packets)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Process(trace.Packets[i%n][:]); err != nil {
			b.Fatal(err)
		}
	}
}

func plainTrace(seed int64) *pktgen.Trace {
	return pktgen.Generate(pktgen.Config{Flows: 1024, Packets: 8192, ZipfS: 1.1, Seed: seed})
}

func queueTrace(seed int64) *pktgen.Trace {
	tr := pktgen.Generate(pktgen.Config{Flows: 256, Packets: 8192, Seed: seed})
	tr.Queueize()
	return tr
}

// --- Table 1: per-category degradation (representative: the heavy
// configurations also used by Fig. 5) ---

func BenchmarkTable1_Survey(b *testing.B) {
	trace := plainTrace(1)
	for _, flavor := range []nf.Flavor{nf.Kernel, nf.EBPF} {
		cm, err := cmsketch.New(flavor, cmsketch.Config{Rows: 8, Width: 4096})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("sketching/"+flavor.String(), func(b *testing.B) { runTrace(b, cm, trace) })

		hk, err := heavykeeper.New(flavor, heavykeeper.Config{Rows: 4, Width: 4096})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("counting/"+flavor.String(), func(b *testing.B) { runTrace(b, hk, trace) })

		ei, err := eiffel.New(flavor, eiffel.Config{Levels: 3})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("queuing/"+flavor.String(), func(b *testing.B) { runTrace(b, ei, queueTrace(2)) })
	}
}

// --- Fig. 1: behaviour fractions (full vs stripped EBPF variants) ---

func BenchmarkFig1_BehaviorFraction(b *testing.B) {
	trace := plainTrace(3)
	for _, stripped := range []bool{false, true} {
		label := "full"
		if stripped {
			label = "stripped"
		}
		cm, err := cmsketch.New(nf.EBPF, cmsketch.Config{Rows: 8, Width: 4096, Stripped: stripped})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("O2_hashes/"+label, func(b *testing.B) { runTrace(b, cm, trace) })

		ei, err := eiffel.New(nf.EBPF, eiffel.Config{Levels: 2, Stripped: stripped})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("O1_bits/"+label, func(b *testing.B) { runTrace(b, ei, queueTrace(4)) })

		tw, err := timewheel.New(nf.EBPF, timewheel.Config{Slots: 1024, Stripped: stripped})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("O3_lists/"+label, func(b *testing.B) { runTrace(b, tw, queueTrace(5)) })

		ns, err := nitrosketch.New(nf.EBPF, nitrosketch.Config{Rows: 8, Width: 4096, Stripped: stripped})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("O4_random/"+label, func(b *testing.B) { runTrace(b, ns, trace) })
	}
}

// --- Table 2: component micro-benchmarks (native vs software paths) ---

func BenchmarkTable2_Components(b *testing.B) {
	// Carrier NFs dominated by one component each; see also the pure
	// component benchmarks in the internal packages.
	qt := queueTrace(6)
	tr := plainTrace(7)
	type mk struct {
		name  string
		build func(f nf.Flavor) (nf.Instance, error)
		trace *pktgen.Trace
	}
	mks := []mk{
		{"ffs/eiffelL3", func(f nf.Flavor) (nf.Instance, error) {
			q, err := eiffel.New(f, eiffel.Config{Levels: 3})
			if err != nil {
				return nil, err
			}
			return q.Instance, nil
		}, qt},
		{"hash_cnt/cmsD8", func(f nf.Flavor) (nf.Instance, error) {
			s, err := cmsketch.New(f, cmsketch.Config{Rows: 8, Width: 4096})
			if err != nil {
				return nil, err
			}
			return s.Instance, nil
		}, tr},
		{"listbuckets/timewheel", func(f nf.Flavor) (nf.Instance, error) {
			w, err := timewheel.New(f, timewheel.Config{Slots: 1024})
			if err != nil {
				return nil, err
			}
			return w.Instance, nil
		}, qt},
		{"rpool/nitroP1", func(f nf.Flavor) (nf.Instance, error) {
			s, err := nitrosketch.New(f, nitrosketch.Config{Rows: 8, Width: 4096, ProbLog2: 0})
			if err != nil {
				return nil, err
			}
			return s.Instance, nil
		}, tr},
	}
	for _, m := range mks {
		for _, flavor := range []nf.Flavor{nf.EBPF, nf.ENetSTL} {
			inst, err := m.build(flavor)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(m.name+"/"+flavor.String(), func(b *testing.B) { runTrace(b, inst, m.trace) })
		}
	}
}

// --- Fig. 3a/3b: skip-list key-value query ---

func skiplistBench(b *testing.B, mix []uint32, weights []int) {
	for _, load := range []int{1 << 10, 1 << 14} {
		for _, flavor := range []nf.Flavor{nf.Kernel, nf.ENetSTL} {
			s, err := skiplist.New(flavor)
			if err != nil {
				b.Fatal(err)
			}
			trace := pktgen.Generate(pktgen.Config{Flows: load, Packets: 8192, Seed: int64(load)})
			trace.ApplyOpMix(mix, weights)
			pkt := make([]byte, nf.PktSize)
			binary.LittleEndian.PutUint32(pkt[nf.OffOp:], nf.OpUpdate)
			for i := 0; i < load; i++ {
				copy(pkt, trace.FlowKeys[i][:])
				if _, err := s.Process(pkt); err != nil {
					b.Fatal(err)
				}
			}
			b.Run(fmt.Sprintf("load=%d/%s", load, flavor), func(b *testing.B) {
				runTrace(b, s, trace)
			})
		}
	}
}

func BenchmarkFig3a_SkiplistLookup(b *testing.B) {
	skiplistBench(b, []uint32{nf.OpLookup}, []int{1})
}

func BenchmarkFig3b_SkiplistUpdateDelete(b *testing.B) {
	skiplistBench(b, []uint32{nf.OpUpdate, nf.OpDelete}, []int{1, 1})
}

// --- Fig. 3c: cuckoo switch vs load factor ---

func BenchmarkFig3c_CuckooSwitch(b *testing.B) {
	const buckets = 512
	for _, loadPct := range []int{25, 95} {
		n := loadPct * buckets * cuckooswitch.Slots / 100
		trace := pktgen.Generate(pktgen.Config{Flows: n, Packets: 8192, Seed: int64(loadPct)})
		for _, flavor := range allFlavors {
			s, err := cuckooswitch.New(flavor, cuckooswitch.Config{Buckets: buckets})
			if err != nil {
				b.Fatal(err)
			}
			for f := 0; f < n; f++ {
				s.Insert(trace.FlowKeys[f][:], uint32(100+f))
			}
			b.Run(fmt.Sprintf("load=%d%%/%s", loadPct, flavor), func(b *testing.B) {
				runTrace(b, s, trace)
			})
		}
	}
}

// --- Fig. 3d: NitroSketch vs update probability ---

func BenchmarkFig3d_NitroSketch(b *testing.B) {
	trace := plainTrace(8)
	for _, k := range []int{0, 4, 8} {
		for _, flavor := range allFlavors {
			s, err := nitrosketch.New(flavor, nitrosketch.Config{Rows: 8, Width: 4096, ProbLog2: k})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("p=2^-%d/%s", k, flavor), func(b *testing.B) {
				runTrace(b, s, trace)
			})
		}
	}
}

// --- Fig. 3e: count-min sketch vs hash functions ---

func BenchmarkFig3e_CountMin(b *testing.B) {
	trace := plainTrace(9)
	for _, d := range []int{2, 4, 8} {
		for _, flavor := range allFlavors {
			s, err := cmsketch.New(flavor, cmsketch.Config{Rows: d, Width: 4096})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("d=%d/%s", d, flavor), func(b *testing.B) {
				runTrace(b, s, trace)
			})
		}
	}
}

// --- Fig. 3f: time wheel vs slot count ---

func BenchmarkFig3f_TimeWheel(b *testing.B) {
	trace := queueTrace(10)
	for _, slots := range []int{256, 4096} {
		for _, flavor := range allFlavors {
			w, err := timewheel.New(flavor, timewheel.Config{Slots: slots})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("slots=%d/%s", slots, flavor), func(b *testing.B) {
				runTrace(b, w, trace)
			})
		}
	}
}

// --- Fig. 3g: cuckoo filter vs load factor ---

func BenchmarkFig3g_CuckooFilter(b *testing.B) {
	const buckets = 1024
	for _, loadPct := range []int{25, 95} {
		n := loadPct * buckets * cuckoofilter.Slots / 100
		trace := pktgen.Generate(pktgen.Config{Flows: n, Packets: 8192, Seed: int64(loadPct)})
		for _, flavor := range allFlavors {
			f, err := cuckoofilter.New(flavor, cuckoofilter.Config{Buckets: buckets})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				f.Insert(trace.FlowKeys[i][:])
			}
			b.Run(fmt.Sprintf("load=%d%%/%s", loadPct, flavor), func(b *testing.B) {
				runTrace(b, f, trace)
			})
		}
	}
}

// --- Fig. 3h: Eiffel cFFS vs levels ---

func BenchmarkFig3h_Eiffel(b *testing.B) {
	trace := queueTrace(11)
	for _, levels := range []int{1, 2, 3} {
		for _, flavor := range allFlavors {
			q, err := eiffel.New(flavor, eiffel.Config{Levels: levels})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("levels=%d/%s", levels, flavor), func(b *testing.B) {
				runTrace(b, q, trace)
			})
		}
	}
}

// --- §6.2 other cases: EDF, TSS, HeavyKeeper, VBF ---

func BenchmarkFig3x_OtherNFs(b *testing.B) {
	trace := plainTrace(12)
	for _, flavor := range allFlavors {
		e, err := edf.New(flavor, edf.Config{Groups: 1024, Targets: 64})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("edf/"+flavor.String(), func(b *testing.B) { runTrace(b, e, trace) })

		c, err := tss.New(flavor, tss.Config{Spaces: 8, Slots: 1024})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 512; i++ {
			c.Insert(trace.FlowKeys[i][:], i%8, uint32(i%7+1), uint32(i))
		}
		b.Run("tss/"+flavor.String(), func(b *testing.B) { runTrace(b, c, trace) })

		h, err := heavykeeper.New(flavor, heavykeeper.Config{Rows: 4, Width: 4096})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("heavykeeper/"+flavor.String(), func(b *testing.B) { runTrace(b, h, trace) })

		v, err := vbf.New(flavor, vbf.Config{Bits: 16384, Hashes: 4})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 512; i++ {
			v.Insert(trace.FlowKeys[i][:], i%32)
		}
		b.Run("vbf/"+flavor.String(), func(b *testing.B) { runTrace(b, v, trace) })
	}
}

// --- Fig. 4 / Fig. 5: latency and per-packet time (Fig. 4 adds the
// constant wire term; the processing term below is what differs) ---

func BenchmarkFig4Fig5_PerPacketTime(b *testing.B) {
	trace := plainTrace(13)
	for _, flavor := range allFlavors {
		s, err := cmsketch.New(flavor, cmsketch.Config{Rows: 8, Width: 4096})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("cmsketch/"+flavor.String(), func(b *testing.B) { runTrace(b, s, trace) })

		cs, err := cuckooswitch.New(flavor, cuckooswitch.Config{Buckets: 512})
		if err != nil {
			b.Fatal(err)
		}
		for f := 0; f < 1024; f++ {
			cs.Insert(trace.FlowKeys[f][:], uint32(100+f))
		}
		b.Run("cuckooswitch/"+flavor.String(), func(b *testing.B) { runTrace(b, cs, trace) })
	}
}

// BenchmarkFig4_LatencyDistribution measures the full latency path once
// per run (the harness adds the constant wire term).
func BenchmarkFig4_LatencyDistribution(b *testing.B) {
	trace := pktgen.Generate(pktgen.Config{Flows: 1024, Packets: 2048, ZipfS: 1.1, Seed: 14})
	for _, flavor := range allFlavors {
		s, err := cmsketch.New(flavor, cmsketch.Config{Rows: 8, Width: 4096})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("cmsketch/"+flavor.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := harness.Latency(s, trace); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 6: interface ablation ---

func BenchmarkFig6_InterfaceAblation(b *testing.B) {
	trace := pktgen.Generate(pktgen.Config{Flows: 3800, Packets: 8192, Seed: 15})
	for _, low := range []bool{false, true} {
		label := "high"
		if low {
			label = "low"
		}
		cs, err := cuckooswitch.New(nf.ENetSTL, cuckooswitch.Config{Buckets: 512, LowLevel: low})
		if err != nil {
			b.Fatal(err)
		}
		for f := 0; f < 3800; f++ {
			cs.Insert(trace.FlowKeys[f][:], uint32(100+f))
		}
		b.Run("COMP/"+label, func(b *testing.B) { runTrace(b, cs, trace) })

		cm, err := cmsketch.New(nf.ENetSTL, cmsketch.Config{Rows: 8, Width: 4096, LowLevel: low})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("HASH/"+label, func(b *testing.B) { runTrace(b, cm, trace) })
	}
}

// --- Fig. 7 is app-level; see internal/apps and cmd/enetstl-bench
// -experiment fig7. Here: the two heaviest apps. ---

func BenchmarkFig7_RealWorld(b *testing.B) {
	benchApp := func(name string, enetstl bool, inst nf.Instance, trace *pktgen.Trace) {
		label := "origin"
		if enetstl {
			label = "enetstl"
		}
		b.Run(name+"/"+label, func(b *testing.B) { runTrace(b, inst, trace) })
	}
	trace := plainTrace(16)
	for _, enetstl := range []bool{false, true} {
		kat, err := newKatran(enetstl, trace)
		if err != nil {
			b.Fatal(err)
		}
		benchApp("katran", enetstl, kat, trace)
		ss, err := newSketchSuite(enetstl)
		if err != nil {
			b.Fatal(err)
		}
		benchApp("sketches", enetstl, ss, trace)
	}
}

func newKatran(enetstl bool, trace *pktgen.Trace) (nf.Instance, error) {
	a, err := apps.NewKatran(enetstl, trace.FlowKeys)
	if err != nil {
		return nil, err
	}
	return a, nil
}

func newSketchSuite(enetstl bool) (nf.Instance, error) {
	a, err := apps.NewSketchSuite(enetstl)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// --- DESIGN.md §4 ablations ---

// BenchmarkAblation_LazyVsEagerSafety compares the memory wrapper's
// lazy safety checking against eager per-traversal validation (§4.2).
func BenchmarkAblation_LazyVsEagerSafety(b *testing.B) {
	build := func(eager bool) (*memwrapper.Proxy, *memwrapper.Node) {
		p := memwrapper.Must(memwrapper.NewProxy(32, 1))
		p.Eager = eager
		head, _ := p.Alloc(1)
		p.SetOwner(head)
		cur := head
		for i := 0; i < 64; i++ {
			n, _ := p.Alloc(1)
			p.SetOwner(n)
			p.Connect(cur, 0, n)
			p.Release(n)
			cur = n
		}
		return p, head
	}
	for _, eager := range []bool{false, true} {
		label := "lazy"
		if eager {
			label = "eager"
		}
		p, head := build(eager)
		b.Run(label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cur := head
				held := false
				for {
					next, err := p.Next(cur, 0)
					if err != nil {
						b.Fatal(err)
					}
					if next == nil {
						break
					}
					if held {
						p.Release(cur)
					}
					cur, held = next, true
				}
				if held {
					p.Release(cur)
				}
			}
		})
	}
}

// BenchmarkAblation_ListBucketsLocking compares list-buckets (lock
// free) against the lock-coupled BPF linked lists via the time wheel.
func BenchmarkAblation_ListBucketsLocking(b *testing.B) {
	trace := queueTrace(17)
	for _, flavor := range []nf.Flavor{nf.EBPF, nf.ENetSTL} {
		w, err := timewheel.New(flavor, timewheel.Config{Slots: 1024})
		if err != nil {
			b.Fatal(err)
		}
		label := "bpf_list_locked"
		if flavor == nf.ENetSTL {
			label = "listbuckets_lockfree"
		}
		b.Run(label, func(b *testing.B) { runTrace(b, w, trace) })
	}
}

// BenchmarkComponent_ListBucketsNative measures raw list-buckets ops.
func BenchmarkComponent_ListBucketsNative(b *testing.B) {
	lb := listbuckets.Must(listbuckets.New(1024, 16, 4096))
	var e [16]byte
	b.Run("push_pop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lb.PushBack(i&1023, e[:])
			lb.PopFront(i&1023, e[:])
		}
	})
}
