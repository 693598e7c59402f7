package experiments

import (
	"fmt"

	"enetstl/internal/apps"
	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nf/cmsketch"
	"enetstl/internal/nf/cuckoofilter"
	"enetstl/internal/nf/cuckooswitch"
	"enetstl/internal/nf/eiffel"
	"enetstl/internal/nf/nitrosketch"
	"enetstl/internal/nf/timewheel"
	"enetstl/internal/pktgen"
)

// Fig1 regenerates the shared-behaviour execution-time fractions by
// comparing full EBPF-flavour NFs against behaviour-stripped variants
// on the same traffic. O5 (non-contiguous memory) has no bar, as in the
// paper: eBPF cannot run that behaviour at all.
func Fig1(opts Options) (*Table, error) {
	o := opts.withDefaults()
	t := &Table{
		ID: "fig1", Title: "fraction of execution time in shared behaviours (eBPF flavours)",
		Header: []string{"observation", "NF", "fraction"},
		Notes:  "paper reports 20.6%-65.4%; O5 is unmeasurable in eBPF (P1)",
	}
	plainTrace := pktgen.Generate(pktgen.Config{Flows: 1024, Packets: o.Packets, ZipfS: 1.1, Seed: 902})
	qTrace := pktgen.Generate(pktgen.Config{Flows: 1024, Packets: o.Packets, Seed: 901})
	qTrace.Queueize()

	type pair struct {
		obs, name      string
		full, stripped nf.Instance
		trace          *pktgen.Trace
	}
	var pairs []pair

	eiF, err := eiffel.New(nf.EBPF, eiffel.Config{Levels: 2})
	if err != nil {
		return nil, err
	}
	eiS, err := eiffel.New(nf.EBPF, eiffel.Config{Levels: 2, Stripped: true})
	if err != nil {
		return nil, err
	}
	pairs = append(pairs, pair{"O1 bit instructions", "eiffel", eiF, eiS, qTrace})

	cmF, err := cmsketch.New(nf.EBPF, cmsketch.Config{Rows: 8, Width: 4096})
	if err != nil {
		return nil, err
	}
	cmS, err := cmsketch.New(nf.EBPF, cmsketch.Config{Rows: 8, Width: 4096, Stripped: true})
	if err != nil {
		return nil, err
	}
	pairs = append(pairs, pair{"O2 multiple hashes", "cmsketch", cmF, cmS, plainTrace})

	twF, err := timewheel.New(nf.EBPF, timewheel.Config{Slots: 1024})
	if err != nil {
		return nil, err
	}
	twS, err := timewheel.New(nf.EBPF, timewheel.Config{Slots: 1024, Stripped: true})
	if err != nil {
		return nil, err
	}
	pairs = append(pairs, pair{"O3 list structures", "timewheel", twF, twS, qTrace})

	// O4 uses p=1 so full and stripped perform identical sketch updates
	// and differ exactly by the per-row helper RNG calls.
	nsF, err := nitrosketch.New(nf.EBPF, nitrosketch.Config{Rows: 8, Width: 4096, ProbLog2: 0})
	if err != nil {
		return nil, err
	}
	nsS, err := nitrosketch.New(nf.EBPF, nitrosketch.Config{Rows: 8, Width: 4096, ProbLog2: 0, Stripped: true})
	if err != nil {
		return nil, err
	}
	pairs = append(pairs, pair{"O4 random updates", "nitrosketch", nsF, nsS, plainTrace})

	csF, err := cuckooswitch.New(nf.EBPF, cuckooswitch.Config{Buckets: 512})
	if err != nil {
		return nil, err
	}
	csS, err := cuckooswitch.New(nf.EBPF, cuckooswitch.Config{Buckets: 512, Stripped: true})
	if err != nil {
		return nil, err
	}
	// Half the flows miss, so full lookups scan both buckets end to end
	// (the stripped variant returns after the first bucket probe).
	for f := 0; f < 512; f++ {
		csF.Insert(plainTrace.FlowKeys[f][:], uint32(100+f))
		csS.Insert(plainTrace.FlowKeys[f][:], uint32(100+f))
	}
	pairs = append(pairs, pair{"O6 bucket compares", "cuckooswitch", csF, csS, plainTrace})

	for _, p := range pairs {
		frac, err := harness.BehaviorFraction(p.full, p.stripped, p.trace, o.Trials)
		if err != nil {
			return nil, fmt.Errorf("fig1 %s: %w", p.name, err)
		}
		t.Rows = append(t.Rows, []string{p.obs, p.name, pct(frac)})
	}
	t.Rows = append(t.Rows, []string{"O5 non-contiguous memory", "skiplist", "n/a (P1)"})
	return t, nil
}

// heavyInstances builds every NF at its heavy configuration in the
// given flavour, with a matching trace (Figs. 4 and 5).
func heavyInstances(o Options, flavor nf.Flavor) (map[string]nf.Instance, map[string]*pktgen.Trace, error) {
	insts := map[string]nf.Instance{}
	traces := map[string]*pktgen.Trace{}

	plain := pktgen.Generate(pktgen.Config{Flows: 2048, Packets: o.Packets / 4, ZipfS: 1.1, Seed: 950})
	qtr := pktgen.Generate(pktgen.Config{Flows: 256, Packets: o.Packets / 4, Seed: 951})
	qtr.Queueize()

	add := func(name string, inst nf.Instance, err error, tr *pktgen.Trace) error {
		if err != nil {
			return fmt.Errorf("%s/%v: %w", name, flavor, err)
		}
		insts[name] = inst
		traces[name] = tr
		return nil
	}

	cs, err := cuckooswitch.New(flavor, cuckooswitch.Config{Buckets: 512})
	if err == nil {
		for f := 0; f < 3800; f++ { // ~93% load
			cs.Insert(plain.FlowKeys[f%len(plain.FlowKeys)][:], uint32(100+f))
		}
	}
	if err := add("cuckooswitch", cs, err, plain); err != nil {
		return nil, nil, err
	}
	cf, err := cuckoofilter.New(flavor, cuckoofilter.Config{Buckets: 1024})
	if err == nil {
		for f := 0; f < 2048; f++ {
			cf.Insert(plain.FlowKeys[f][:])
		}
	}
	if err := add("cuckoofilter", cf, err, plain); err != nil {
		return nil, nil, err
	}
	cm, err := cmsketch.New(flavor, cmsketch.Config{Rows: 8, Width: 4096})
	if err := add("cmsketch", cm, err, plain); err != nil {
		return nil, nil, err
	}
	ns, err := nitrosketch.New(flavor, nitrosketch.Config{Rows: 8, Width: 4096, ProbLog2: 4})
	if err := add("nitrosketch", ns, err, plain); err != nil {
		return nil, nil, err
	}
	ei, err := eiffel.New(flavor, eiffel.Config{Levels: 3})
	if err := add("eiffel", ei, err, qtr); err != nil {
		return nil, nil, err
	}
	tw, err := timewheel.New(flavor, timewheel.Config{Slots: 4096})
	if err := add("timewheel", tw, err, qtr); err != nil {
		return nil, nil, err
	}
	return insts, traces, nil
}

var fig45NFs = []string{"cuckooswitch", "cuckoofilter", "cmsketch", "nitrosketch", "eiffel", "timewheel"}

// Fig4 regenerates the low-load end-to-end latency comparison.
func Fig4(opts Options) (*Table, error) {
	o := opts.withDefaults()
	t := &Table{
		ID: "fig4", Title: "end-to-end latency under low load (ns, incl. constant wire term)",
		Header: []string{"NF", "Kernel p50", "eBPF p50", "eNetSTL p50", "eNetSTL p99"},
		Notes:  fmt.Sprintf("wire/NIC constant %d ns identical across flavours", harness.WireNs),
	}
	var results [3]map[string]harness.LatencyResult
	for fi, flavor := range []nf.Flavor{nf.Kernel, nf.EBPF, nf.ENetSTL} {
		insts, traces, err := heavyInstances(o, flavor)
		if err != nil {
			return nil, err
		}
		results[fi] = map[string]harness.LatencyResult{}
		for name, inst := range insts {
			lr, err := harness.Latency(inst, traces[name])
			if err != nil {
				return nil, err
			}
			results[fi][name] = lr
		}
	}
	for _, name := range fig45NFs {
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.0f", results[0][name].P50),
			fmt.Sprintf("%.0f", results[1][name].P50),
			fmt.Sprintf("%.0f", results[2][name].P50),
			fmt.Sprintf("%.0f", results[2][name].P99),
		})
	}
	return t, nil
}

// Fig5 regenerates the per-packet processing time comparison.
func Fig5(opts Options) (*Table, error) {
	o := opts.withDefaults()
	t := &Table{
		ID: "fig5", Title: "per-packet processing time (ns)",
		Header: []string{"NF", "Kernel", "eBPF", "eNetSTL", "eNetSTL/eBPF"},
	}
	var results [3]map[string]harness.Result
	for fi, flavor := range []nf.Flavor{nf.Kernel, nf.EBPF, nf.ENetSTL} {
		insts, traces, err := heavyInstances(o, flavor)
		if err != nil {
			return nil, err
		}
		results[fi] = map[string]harness.Result{}
		for name, inst := range insts {
			r, err := harness.Throughput(inst, traces[name], o.Trials)
			if err != nil {
				return nil, err
			}
			results[fi][name] = r
		}
	}
	for _, name := range fig45NFs {
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.0f", results[0][name].NsPerOp),
			fmt.Sprintf("%.0f", results[1][name].NsPerOp),
			fmt.Sprintf("%.0f", results[2][name].NsPerOp),
			fmt.Sprintf("%.2fx", results[1][name].NsPerOp/results[2][name].NsPerOp),
		})
	}
	return t, nil
}

// Fig6 regenerates the interface ablation: the high-level fused
// interfaces against per-instruction (COMP) and copy-out (HASH)
// low-level variants of the same eNetSTL components.
func Fig6(opts Options) (*Table, error) {
	o := opts.withDefaults()
	t := &Table{
		ID: "fig6", Title: "high-level vs low-level interfaces (eNetSTL flavours)",
		Header: []string{"behaviour", "high(Mpps)", "low(Mpps)", "degradation"},
		Notes:  "paper reports 59.0%-73.1% degradation for low-level interfaces",
	}
	// COMP: cuckoo switch at high load.
	trace := pktgen.Generate(pktgen.Config{Flows: 3800, Packets: o.Packets, Seed: 960})
	mk := func(low bool) (nf.Instance, error) {
		s, err := cuckooswitch.New(nf.ENetSTL, cuckooswitch.Config{Buckets: 512, LowLevel: low})
		if err != nil {
			return nil, err
		}
		for f := 0; f < 3800; f++ {
			s.Insert(trace.FlowKeys[f][:], uint32(100+f))
		}
		return s, nil
	}
	hi, err := mk(false)
	if err != nil {
		return nil, err
	}
	lo, err := mk(true)
	if err != nil {
		return nil, err
	}
	rh, err := harness.Throughput(hi, trace, o.Trials)
	if err != nil {
		return nil, err
	}
	rl, err := harness.Throughput(lo, trace, o.Trials)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"COMP (find_simd)", mpps(rh.PPS), mpps(rl.PPS),
		pct(1 - rl.PPS/rh.PPS)})

	// HASH: count-min with 8 rows.
	trace2 := pktgen.Generate(pktgen.Config{Flows: 1024, Packets: o.Packets, ZipfS: 1.1, Seed: 961})
	cmHi, err := cmsketch.New(nf.ENetSTL, cmsketch.Config{Rows: 8, Width: 4096})
	if err != nil {
		return nil, err
	}
	cmLo, err := cmsketch.New(nf.ENetSTL, cmsketch.Config{Rows: 8, Width: 4096, LowLevel: true})
	if err != nil {
		return nil, err
	}
	rh2, err := harness.Throughput(cmHi, trace2, o.Trials)
	if err != nil {
		return nil, err
	}
	rl2, err := harness.Throughput(cmLo, trace2, o.Trials)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"HASH (hash_cnt)", mpps(rh2.PPS), mpps(rl2.PPS),
		pct(1 - rl2.PPS/rh2.PPS)})
	return t, nil
}

// Fig7 regenerates the real-world integration comparison.
func Fig7(opts Options) (*Table, error) {
	o := opts.withDefaults()
	t := &Table{
		ID: "fig7", Title: "real-world apps: Origin (pure-eBPF cores) vs eNetSTL",
		Header: []string{"app", "Origin(Mpps)", "eNetSTL(Mpps)", "gain"},
		Notes:  "paper reports 21.6% average improvement",
	}
	trace := pktgen.Generate(pktgen.Config{Flows: 2048, Packets: o.Packets, ZipfS: 1.1, Seed: 970})
	builders := []struct {
		name string
		mk   func(enetstl bool) (*apps.App, error)
	}{
		{"katran", func(e bool) (*apps.App, error) { return apps.NewKatran(e, trace.FlowKeys) }},
		{"rakelimit", func(e bool) (*apps.App, error) { return apps.NewRakeLimit(e) }},
		{"polycube", func(e bool) (*apps.App, error) { return apps.NewPolycube(e, trace.FlowKeys) }},
		{"sketches", func(e bool) (*apps.App, error) { return apps.NewSketchSuite(e) }},
	}
	for _, bl := range builders {
		orig, err := bl.mk(false)
		if err != nil {
			return nil, fmt.Errorf("fig7 %s: %w", bl.name, err)
		}
		estl, err := bl.mk(true)
		if err != nil {
			return nil, fmt.Errorf("fig7 %s: %w", bl.name, err)
		}
		ro, err := harness.Throughput(orig, trace, o.Trials)
		if err != nil {
			return nil, err
		}
		re, err := harness.Throughput(estl, trace, o.Trials)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{bl.name, mpps(ro.PPS), mpps(re.PPS), gainPct(re.PPS, ro.PPS)})
	}
	return t, nil
}
