package experiments

import (
	"fmt"

	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nf/bloom"
	"enetstl/internal/nf/cmsketch"
	"enetstl/internal/nf/cuckoofilter"
	"enetstl/internal/nf/cuckooswitch"
	"enetstl/internal/nf/daryhash"
	"enetstl/internal/nf/edf"
	"enetstl/internal/nf/eiffel"
	"enetstl/internal/nf/heavykeeper"
	"enetstl/internal/nf/nitrosketch"
	"enetstl/internal/nf/skiplist"
	"enetstl/internal/nf/spacesaving"
	"enetstl/internal/nf/timewheel"
	"enetstl/internal/nf/tss"
	"enetstl/internal/nf/vbf"
	"enetstl/internal/pktgen"
)

// Table1 regenerates the survey table: per NF category, the
// representative operation's eBPF feasibility and its measured
// throughput degradation against the in-kernel implementation.
func Table1(opts Options) (*Table, error) {
	o := opts.withDefaults()
	t := &Table{
		ID: "table1", Title: "survey: eBPF implementability and degradation vs kernel",
		Header: []string{"category", "representative op", "eBPF", "degradation"},
		Notes:  "paper: 3 works unimplementable (x), 28 degraded 14.8%-49.2%, 4 unaffected",
	}
	plain := pktgen.Generate(pktgen.Config{Flows: 2048, Packets: o.Packets / 2, ZipfS: 1.1, Seed: 980})
	qtr := pktgen.Generate(pktgen.Config{Flows: 256, Packets: o.Packets / 2, Seed: 981})
	qtr.Queueize()

	degrade := func(kern, ebpf nf.Instance, trace *pktgen.Trace) (string, error) {
		rk, err := harness.Throughput(kern, trace, o.Trials)
		if err != nil {
			return "", err
		}
		re, err := harness.Throughput(ebpf, trace, o.Trials)
		if err != nil {
			return "", err
		}
		return pct(1 - re.PPS/rk.PPS), nil
	}

	// Key-value query: skip list (P1) and blocked cuckoo hash.
	if _, err := skiplist.New(nf.EBPF); err == nil {
		return nil, fmt.Errorf("table1: skip list unexpectedly implementable in eBPF")
	}
	t.Rows = append(t.Rows, []string{"key-value query", "skip-list lookup [47]", "x", "n/a (P1)"})

	csK, err := cuckooswitch.New(nf.Kernel, cuckooswitch.Config{Buckets: 512})
	if err != nil {
		return nil, err
	}
	csE, err := cuckooswitch.New(nf.EBPF, cuckooswitch.Config{Buckets: 512})
	if err != nil {
		return nil, err
	}
	for f := 0; f < 2048; f++ {
		csK.Insert(plain.FlowKeys[f][:], uint32(100+f))
		csE.Insert(plain.FlowKeys[f][:], uint32(100+f))
	}
	d, err := degrade(csK, csE, plain)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"key-value query", "blocked cuckoo hash [82]", "degraded", d})

	dhK, _ := daryhash.New(nf.Kernel, daryhash.Config{Slots: 4096, D: 4})
	dhE, _ := daryhash.New(nf.EBPF, daryhash.Config{Slots: 4096, D: 4})
	for f := 0; f < 2048; f++ {
		dhK.Insert(plain.FlowKeys[f][:], uint32(100+f))
		dhE.Insert(plain.FlowKeys[f][:], uint32(100+f))
	}
	if d, err = degrade(dhK.Instance, dhE.Instance, plain); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"key-value query", "d-ary cuckoo hash [27]", "degraded", d})

	cfK, _ := cuckoofilter.New(nf.Kernel, cuckoofilter.Config{Buckets: 1024})
	cfE, _ := cuckoofilter.New(nf.EBPF, cuckoofilter.Config{Buckets: 1024})
	for f := 0; f < 2048; f++ {
		cfK.Insert(plain.FlowKeys[f][:])
		cfE.Insert(plain.FlowKeys[f][:])
	}
	if d, err = degrade(cfK, cfE, plain); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"membership test", "cuckoo filter lookup [25]", "degraded", d})

	vbK, _ := vbf.New(nf.Kernel, vbf.Config{Bits: 16384, Hashes: 4})
	vbE, _ := vbf.New(nf.EBPF, vbf.Config{Bits: 16384, Hashes: 4})
	for f := 0; f < 1024; f++ {
		vbK.Insert(plain.FlowKeys[f][:], f%32)
		vbE.Insert(plain.FlowKeys[f][:], f%32)
	}
	if d, err = degrade(vbK, vbE, plain); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"membership test", "vector bloom test [36]", "degraded", d})

	tsK, _ := tss.New(nf.Kernel, tss.Config{Spaces: 8, Slots: 1024})
	tsE, _ := tss.New(nf.EBPF, tss.Config{Spaces: 8, Slots: 1024})
	for f := 0; f < 512; f++ {
		tsK.Insert(plain.FlowKeys[f][:], f%8, uint32(f%7+1), uint32(f))
		tsE.Insert(plain.FlowKeys[f][:], f%8, uint32(f%7+1), uint32(f))
	}
	if d, err = degrade(tsK, tsE, plain); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"packet classification", "tuple space search [68]", "degraded", d})

	edK, _ := edf.New(nf.Kernel, edf.Config{Groups: 1024, Targets: 64})
	edE, _ := edf.New(nf.EBPF, edf.Config{Groups: 1024, Targets: 64})
	if d, err = degrade(edK, edE, plain); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"load balancing", "EFD group lookup [20]", "degraded", d})

	hkK, _ := heavykeeper.New(nf.Kernel, heavykeeper.Config{Rows: 4, Width: 4096})
	hkE, _ := heavykeeper.New(nf.EBPF, heavykeeper.Config{Rows: 4, Width: 4096})
	if d, err = degrade(hkK, hkE, plain); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"counting", "HeavyKeeper update [81]", "degraded", d})

	ssK, _ := spacesaving.New(nf.Kernel, spacesaving.Config{Slots: 64})
	ssE, _ := spacesaving.New(nf.EBPF, spacesaving.Config{Slots: 64})
	if d, err = degrade(ssK, ssE, plain); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"counting", "space-saving update [50,55]", "degraded", d})

	bfK, _ := bloom.New(nf.Kernel, bloom.Config{Bits: 1 << 16, Hashes: 4})
	bfE, _ := bloom.New(nf.EBPF, bloom.Config{Bits: 1 << 16, Hashes: 4})
	bTrace := pktgen.Generate(pktgen.Config{Flows: 2048, Packets: o.Packets / 2, ZipfS: 1.1, Seed: 982})
	bTrace.ApplyOpMix([]uint32{nf.OpUpdate, nf.OpLookup}, []int{1, 3})
	if d, err = degrade(bfK.Instance, bfE.Instance, bTrace); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"membership test", "bloom filter [8]", "degraded", d})

	cmK, _ := cmsketch.New(nf.Kernel, cmsketch.Config{Rows: 8, Width: 4096})
	cmE, _ := cmsketch.New(nf.EBPF, cmsketch.Config{Rows: 8, Width: 4096})
	if d, err = degrade(cmK.Instance, cmE.Instance, plain); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"sketching", "count-min update [15]", "degraded", d})

	nsK, _ := nitrosketch.New(nf.Kernel, nitrosketch.Config{Rows: 8, Width: 4096, ProbLog2: 4})
	nsE, _ := nitrosketch.New(nf.EBPF, nitrosketch.Config{Rows: 8, Width: 4096, ProbLog2: 4})
	if d, err = degrade(nsK.Instance, nsE.Instance, plain); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"sketching", "NitroSketch update [45]", "degraded", d})

	eiK, _ := eiffel.New(nf.Kernel, eiffel.Config{Levels: 3})
	eiE, _ := eiffel.New(nf.EBPF, eiffel.Config{Levels: 3})
	if d, err = degrade(eiK.Instance, eiE.Instance, qtr); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"queuing", "Eiffel cFFS [64]", "degraded", d})

	twK, _ := timewheel.New(nf.Kernel, timewheel.Config{Slots: 4096})
	twE, _ := timewheel.New(nf.EBPF, timewheel.Config{Slots: 4096})
	if d, err = degrade(twK.Instance, twE.Instance, qtr); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"queuing", "Carousel time wheel [63]", "degraded", d})
	t.Rows = append(t.Rows, []string{"queuing", "FQ red-black tree [24]", "x", "n/a (P1)"})
	return t, nil
}

// Table2 regenerates the component summary: per eNetSTL component, the
// per-operation time of the pure-eBPF datapath that needs it against
// the eNetSTL datapath, at the configuration where the component is the
// dominant cost. The memory wrapper has no eBPF baseline (P1).
func Table2(opts Options) (*Table, error) {
	o := opts.withDefaults()
	t := &Table{
		ID: "table2", Title: "components: per-op time, eBPF vs eNetSTL",
		Header: []string{"component", "carrier op", "eBPF ns/op", "eNetSTL ns/op", "improvement"},
		Notes:  "paper reports 52.0%-513% per-component improvement; memory wrapper enables new NFs",
	}
	plain := pktgen.Generate(pktgen.Config{Flows: 1024, Packets: o.Packets / 2, ZipfS: 1.1, Seed: 990})
	qtr := pktgen.Generate(pktgen.Config{Flows: 256, Packets: o.Packets / 2, Seed: 991})
	qtr.Queueize()

	row := func(component, carrier string, eb, es nf.Instance, trace *pktgen.Trace) error {
		re, err := harness.Throughput(eb, trace, o.Trials)
		if err != nil {
			return err
		}
		rs, err := harness.Throughput(es, trace, o.Trials)
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{component, carrier,
			fmt.Sprintf("%.0f", re.NsPerOp), fmt.Sprintf("%.0f", rs.NsPerOp),
			fmt.Sprintf("^%.0f%%", (re.NsPerOp/rs.NsPerOp-1)*100)})
		return nil
	}

	eiE, _ := eiffel.New(nf.EBPF, eiffel.Config{Levels: 3})
	eiS, _ := eiffel.New(nf.ENetSTL, eiffel.Config{Levels: 3})
	if err := row("bit manipulation (ffs)", "eiffel L3", eiE.Instance, eiS.Instance, qtr); err != nil {
		return nil, err
	}

	// High-load table with misses so both buckets are scanned fully:
	// the configuration where comparisons dominate.
	hiTrace := pktgen.Generate(pktgen.Config{Flows: 3800, Packets: o.Packets / 2, Seed: 993})
	csE, _ := cuckooswitch.New(nf.EBPF, cuckooswitch.Config{Buckets: 512})
	csS, _ := cuckooswitch.New(nf.ENetSTL, cuckooswitch.Config{Buckets: 512})
	for f := 0; f < 1900; f++ {
		csE.Insert(hiTrace.FlowKeys[f][:], uint32(100+f))
		csS.Insert(hiTrace.FlowKeys[f][:], uint32(100+f))
	}
	if err := row("parallel compare (find_simd)", "cuckoo switch 95%", csE, csS, hiTrace); err != nil {
		return nil, err
	}

	cmE, _ := cmsketch.New(nf.EBPF, cmsketch.Config{Rows: 8, Width: 4096})
	cmS, _ := cmsketch.New(nf.ENetSTL, cmsketch.Config{Rows: 8, Width: 4096})
	if err := row("fused multi-hash (hash_cnt)", "count-min d=8", cmE.Instance, cmS.Instance, plain); err != nil {
		return nil, err
	}

	twE, _ := timewheel.New(nf.EBPF, timewheel.Config{Slots: 1024})
	twS, _ := timewheel.New(nf.ENetSTL, timewheel.Config{Slots: 1024})
	if err := row("list-buckets", "time wheel", twE.Instance, twS.Instance, qtr); err != nil {
		return nil, err
	}

	nsE, _ := nitrosketch.New(nf.EBPF, nitrosketch.Config{Rows: 8, Width: 4096, ProbLog2: 0})
	nsS, _ := nitrosketch.New(nf.ENetSTL, nitrosketch.Config{Rows: 8, Width: 4096, ProbLog2: 0})
	if err := row("random-pool", "NitroSketch p=1", nsE.Instance, nsS.Instance, plain); err != nil {
		return nil, err
	}

	slS, err := skiplist.New(nf.ENetSTL)
	if err != nil {
		return nil, err
	}
	lkTrace := skiplistTrace(o, 1<<12, []uint32{nf.OpLookup}, []int{1}, 992)
	if err := preloadSkiplist(slS, lkTrace, 1<<12); err != nil {
		return nil, err
	}
	rs, err := harness.Throughput(slS, lkTrace, o.Trials)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"memory wrapper", "skip-list lookup", "n/a (P1)",
		fmt.Sprintf("%.0f", rs.NsPerOp), "enables NF"})
	return t, nil
}
