package harness

import (
	"fmt"
	"sort"
	"strings"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
)

// Callee is one helper or kfunc row in a ProfileReport.
type Callee struct {
	Kind     string // "helper" or "kfunc"
	Name     string
	Calls    uint64
	Ns       uint64
	Fraction float64 // share of total run time spent inside this callee
}

// OpMixEntry is one opcode-class row in a ProfileReport.
type OpMixEntry struct {
	Class    string
	Count    uint64
	Fraction float64 // share of instructions retired
}

// ProfileReport attributes an NF's execution time to its helpers and
// kfuncs, measured directly from VM stats rather than inferred by
// diffing two program variants (the Fig. 1 methodology). Fractions are
// of total run time; InterpFraction is the remainder spent in the
// interpreter loop itself.
type ProfileReport struct {
	Name      string
	Flavor    string
	Packets   int
	RunTimeNs uint64
	Insns     uint64

	Callees        []Callee // sorted by Ns, descending
	OpMix          []OpMixEntry
	InterpFraction float64
}

// Profile runs a VM-backed instance over the trace once with a private
// stats domain attached and reports where the time went. The
// instance's prior stats attachment is restored on return, so
// profiling does not perturb an ongoing -stats collection.
func Profile(inst nf.Instance, trace *pktgen.Trace) (*ProfileReport, error) {
	if len(trace.Packets) == 0 {
		return nil, fmt.Errorf("harness: empty trace")
	}
	v, ok := inst.(*nf.VMInstance)
	if !ok {
		return nil, fmt.Errorf("harness: Profile needs a VM-backed instance, got %s/%s",
			inst.Name(), inst.Flavor())
	}
	prev := v.Machine.Stats()
	st := vm.NewStats()
	v.Machine.SetStats(st)
	defer v.Machine.SetStats(prev)

	if _, err := replayAll(inst, trace, 0, nil); err != nil {
		return nil, err
	}
	ps, ok := st.ProgSnapshot(v.Prog.Name())
	if !ok {
		return nil, fmt.Errorf("harness: no stats recorded for %q", v.Prog.Name())
	}
	return ReportFromProgStats(inst.Name(), inst.Flavor().String(), len(trace.Packets), ps), nil
}

// ReportFromProgStats builds the attribution table from a program's
// counters — the shared back half of Profile, ProfileParallel, and the
// obs server's /profile endpoint (which reports from live vm stats).
func ReportFromProgStats(name, flavor string, packets int, ps vm.ProgStats) *ProfileReport {
	rep := &ProfileReport{
		Name: name, Flavor: flavor,
		Packets: packets, RunTimeNs: ps.RunTimeNs, Insns: ps.Insns,
	}
	total := float64(ps.RunTimeNs)
	if total == 0 {
		total = 1 // degenerate clock resolution; keep fractions finite
	}
	var calleeNs uint64
	add := func(kind string, m map[int32]*vm.CallStats) {
		for _, cs := range m {
			calleeNs += cs.Ns
			rep.Callees = append(rep.Callees, Callee{
				Kind: kind, Name: cs.Name, Calls: cs.Count, Ns: cs.Ns,
				Fraction: float64(cs.Ns) / total,
			})
		}
	}
	add("helper", ps.Helpers)
	add("kfunc", ps.Kfuncs)
	sort.Slice(rep.Callees, func(i, j int) bool {
		if rep.Callees[i].Ns != rep.Callees[j].Ns {
			return rep.Callees[i].Ns > rep.Callees[j].Ns
		}
		return rep.Callees[i].Name < rep.Callees[j].Name
	})
	if calleeNs < ps.RunTimeNs {
		rep.InterpFraction = float64(ps.RunTimeNs-calleeNs) / total
	}
	for c := 0; c < vm.NumOpClasses; c++ {
		if ps.OpClass[c] == 0 {
			continue
		}
		rep.OpMix = append(rep.OpMix, OpMixEntry{
			Class: vm.OpClassName(c), Count: ps.OpClass[c],
			Fraction: float64(ps.OpClass[c]) / float64(max64(ps.Insns, 1)),
		})
	}
	sort.Slice(rep.OpMix, func(i, j int) bool { return rep.OpMix[i].Count > rep.OpMix[j].Count })
	return rep
}

// ProfileParallel is Profile for RSS-sharded replays: the trace is
// hash-partitioned exactly as ParallelRun does it, each shard's
// VM-backed instance gets a private stats domain, every shard replays
// its sub-trace once concurrently, and the per-shard counters are
// merged into ONE attribution table. Because the merge sums counters
// per program name, instruction counts, opcode mix, and per-callee call
// counts are invariant under the shard count — only the time split
// moves with scheduling.
func ProfileParallel(tr *pktgen.Trace, shards int, build ShardBuilder) (*ProfileReport, error) {
	subs, insts, err := buildShards(tr, shards, build)
	if err != nil {
		return nil, err
	}
	vms := make([]*nf.VMInstance, len(insts))
	prevs := make([]*vm.Stats, len(insts))
	stats := make([]*vm.Stats, len(insts))
	defer func() {
		for s, v := range vms {
			if v != nil {
				v.Machine.SetStats(prevs[s])
			}
		}
	}()
	for s, inst := range insts {
		v, ok := inst.(*nf.VMInstance)
		if !ok {
			return nil, fmt.Errorf("harness: ProfileParallel needs VM-backed instances, got %s/%s",
				inst.Name(), inst.Flavor())
		}
		vms[s] = v
		prevs[s] = v.Machine.Stats()
		stats[s] = vm.NewStats()
		v.Machine.SetStats(stats[s])
	}
	if err := fanOut(len(subs), func(s int) error {
		_, err := replayAll(insts[s], subs[s], 0, nil)
		return err
	}); err != nil {
		return nil, err
	}

	merged := vm.NewStats()
	for _, st := range stats {
		merged.Merge(st)
	}
	ps, ok := merged.ProgSnapshot(vms[0].Prog.Name())
	if !ok {
		return nil, fmt.Errorf("harness: no stats recorded for %q", vms[0].Prog.Name())
	}
	return ReportFromProgStats(vms[0].Name(), vms[0].Flavor().String(), len(tr.Packets), ps), nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// String renders the report as an aligned text table.
func (r *ProfileReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s: %d packets, %d insns, %d ns total\n",
		r.Name, r.Flavor, r.Packets, r.Insns, r.RunTimeNs)
	fmt.Fprintf(&b, "  %-8s %-20s %10s %12s %7s\n", "kind", "callee", "calls", "ns", "frac")
	for _, c := range r.Callees {
		fmt.Fprintf(&b, "  %-8s %-20s %10d %12d %6.1f%%\n",
			c.Kind, c.Name, c.Calls, c.Ns, 100*c.Fraction)
	}
	fmt.Fprintf(&b, "  %-8s %-20s %10s %12s %6.1f%%\n", "interp", "(dispatch+alu)", "", "", 100*r.InterpFraction)
	b.WriteString("  opcode mix:")
	for _, e := range r.OpMix {
		fmt.Fprintf(&b, " %s=%.1f%%", e.Class, 100*e.Fraction)
	}
	b.WriteByte('\n')
	return b.String()
}
