// Chaos replay: every registered NF instance is driven through its
// trace under a grid of fault schedules, asserting the robustness
// contract the runtime promises the datapath:
//
//   - no panic escapes Process (VM panics become ErrRuntimeFault; the
//     replay engine recovers native-flavour panics into ErrPanic);
//   - Process returns no error;
//   - the verdict is never XDP_ABORTED (0) — injected faults must
//     degrade to drops or misses, not aborts;
//   - spin locks are balanced after every packet;
//   - the NF's data-structure invariants hold after the run.
//
// This is the userspace analogue of running an XDP program under the
// kernel's fail_function fault attributes on every function tagged
// ALLOW_ERROR_INJECTION, with a BPF exception handler watching for
// aborts.

package harness

import (
	"errors"
	"fmt"

	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/faultinject"
	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
	"enetstl/internal/telemetry"
)

// ChaosSchedule is one grid point: a named arming of the fault plane.
type ChaosSchedule struct {
	Name string
	// Arm arms the plane's sites for this grid point. Sites not armed
	// stay quiet.
	Arm func(p *faultinject.Plane)
}

// ChaosSchedules returns the standard schedule grid. "baseline" runs
// with the plane disarmed, pinning the contract in the absence of
// faults; the others each exercise one failure surface; "mixed-storm"
// arms everything at once at lower intensity.
func ChaosSchedules() []ChaosSchedule {
	return []ChaosSchedule{
		{Name: "baseline", Arm: func(p *faultinject.Plane) {}},
		{Name: "map-full", Arm: func(p *faultinject.Plane) {
			p.Arm(faultinject.SiteMapUpdate, faultinject.Schedule{EveryNth: 3})
		}},
		{Name: "lookup-miss", Arm: func(p *faultinject.Plane) {
			p.Arm(faultinject.SiteMapLookup, faultinject.Schedule{Prob: 0.05})
		}},
		{Name: "alloc-null", Arm: func(p *faultinject.Plane) {
			p.Arm(faultinject.SiteAlloc, faultinject.Schedule{EveryNth: 5})
			// Refills are already rare (a pool refills once every few
			// thousand draws), so every one in the window fails.
			p.Arm(faultinject.SiteRefill, faultinject.Schedule{EveryNth: 1})
		}},
		{Name: "kfunc-fault", Arm: func(p *faultinject.Plane) {
			p.Arm(faultinject.SiteKfunc, faultinject.Schedule{Prob: 0.02})
		}},
		{Name: "mixed-storm", Arm: func(p *faultinject.Plane) {
			p.Arm(faultinject.SiteMapUpdate, faultinject.Schedule{Prob: 0.02})
			p.Arm(faultinject.SiteMapLookup, faultinject.Schedule{Prob: 0.02})
			p.Arm(faultinject.SiteAlloc, faultinject.Schedule{Prob: 0.02})
			p.Arm(faultinject.SiteRefill, faultinject.Schedule{EveryNth: 1})
			p.Arm(faultinject.SiteKfunc, faultinject.Schedule{Prob: 0.01})
		}},
	}
}

// ChaosCase is one NF instance under test, with its trace and the
// NF-specific fault wiring the generic VM surfaces cannot reach.
type ChaosCase struct {
	Name  string
	Inst  nf.Instance
	Trace *pktgen.Trace
	// Arm wires native-flavour fault hooks (memwrapper FailAlloc, rpool
	// FailRefill...) to the plane's sites. Called once per grid point,
	// after the schedule arms the plane. Optional.
	Arm func(p *faultinject.Plane)
	// Check validates the NF's data-structure invariants after a grid
	// point's replay. Optional.
	Check func() error
}

// ChaosViolation is one contract breach.
type ChaosViolation struct {
	Case     string
	Schedule string
	Packet   int    // -1 for post-run invariant violations
	Kind     string // panic | error | verdict | lock | invariant
	Detail   string
}

func (v ChaosViolation) String() string {
	return fmt.Sprintf("%s/%s pkt=%d %s: %s", v.Case, v.Schedule, v.Packet, v.Kind, v.Detail)
}

// maxViolations bounds the stored breaches; ViolationsTotal keeps the
// true count.
const maxViolations = 100

// ChaosResult aggregates one chaos run.
type ChaosResult struct {
	Cases     int
	Schedules int
	Packets   int // packets replayed across the whole grid

	Evaluated uint64 // fault-site consultations across the grid
	Injected  uint64 // faults injected across the grid
	// SiteCounts aggregates every grid point's plane counters by site.
	SiteCounts []faultinject.SiteCount

	Violations      []ChaosViolation
	ViolationsTotal uint64
}

// Failed reports whether any contract breach was observed.
func (r *ChaosResult) Failed() bool { return r.ViolationsTotal > 0 }

func (r *ChaosResult) String() string {
	out := fmt.Sprintf("chaos: %d cases x %d schedules, %d packets, %d/%d faults injected/evaluated, %d violations",
		r.Cases, r.Schedules, r.Packets, r.Injected, r.Evaluated, r.ViolationsTotal)
	for _, v := range r.Violations {
		out += "\n  " + v.String()
	}
	return out
}

// Publish exports the aggregated fault counters into reg, in the same
// series the fault plane itself uses, so chaos-run injections appear in
// the -stats metrics exposition.
func (r *ChaosResult) Publish(reg *telemetry.Registry) {
	reg.SetHelp("fault_site_evaluated_total", "fault-injection site consultations")
	reg.SetHelp("fault_site_injected_total", "faults injected at each site")
	for _, c := range r.SiteCounts {
		l := telemetry.L("site", c.Site)
		reg.Counter("fault_site_evaluated_total", l).Add(c.Evaluated)
		reg.Counter("fault_site_injected_total", l).Add(c.Injected)
	}
	reg.SetHelp("chaos_violations_total", "robustness-contract breaches observed under chaos")
	reg.Counter("chaos_violations_total").Add(r.ViolationsTotal)
}

// Chaos replays every case under every schedule and checks the
// robustness contract after each packet. seed feeds the deterministic
// fault streams, so a failing run replays bit-for-bit.
func Chaos(cases []ChaosCase, schedules []ChaosSchedule, seed uint64) *ChaosResult {
	res := &ChaosResult{Cases: len(cases), Schedules: len(schedules)}
	agg := map[string]*faultinject.SiteCount{}
	violate := func(v ChaosViolation) {
		res.ViolationsTotal++
		if len(res.Violations) < maxViolations {
			res.Violations = append(res.Violations, v)
		}
	}

	for _, c := range cases {
		// The per-case surfaces close over these site pointers; each grid
		// point swaps in its plane's sites, and nil (after the case) is a
		// safe disarmed state (Site.Fire is nil-safe).
		var sUpd, sLkp, sAlloc, sKf *faultinject.Site
		vms := nf.VMs(c.Inst)
		// One arrival clock across the grid (see Throughput).
		var tick uint64
		for _, m := range vms {
			m.WrapMaps(func(mm maps.ArenaMap) maps.ArenaMap {
				return &maps.Faulty{
					M:          mm,
					FailUpdate: func() bool { return sUpd.Fire() },
					MissLookup: func() bool { return sLkp.Fire() },
				}
			})
			m.SetAllocFault(func() bool { return sAlloc.Fire() })
			m.SetKfuncFault(func(k *vm.Kfunc) (uint64, bool) {
				// Allocation-like acquire kfuncs draw from the alloc
				// site so "alloc-null" covers node_alloc/proxy_root on
				// the bytecode flavours too.
				site := sKf
				if k.Meta.Acquire && k.Meta.Ret == vm.RetMem {
					site = sAlloc
				}
				if !site.Fire() {
					return 0, false
				}
				switch k.Meta.Ret {
				case vm.RetMem, vm.RetHandle:
					return 0, true // NULL
				default:
					return ^uint64(0), true // -1, the kfunc error value
				}
			})
		}

		for _, sch := range schedules {
			plane := faultinject.New(seed)
			sUpd = plane.Site(faultinject.SiteMapUpdate)
			sLkp = plane.Site(faultinject.SiteMapLookup)
			sAlloc = plane.Site(faultinject.SiteAlloc)
			sKf = plane.Site(faultinject.SiteKfunc)
			sch.Arm(plane)
			if c.Arm != nil {
				c.Arm(plane)
			}

			tick, _ = replay(c.Inst, c.Trace, tick, func(i int, o outcome) error {
				res.Packets++
				at := ChaosViolation{Case: c.Name, Schedule: sch.Name, Packet: i}
				if o.err != nil {
					at.Kind, at.Detail = "error", o.err.Error()
					if errors.Is(o.err, ErrPanic) {
						at.Kind = "panic"
					}
					violate(at)
					return nil
				}
				if o.verdict == uint64(vm.XDPAborted) {
					at.Kind, at.Detail = "verdict", "XDP_ABORTED"
					violate(at)
				}
				for _, m := range vms {
					if d := m.LockHeld(); d != 0 {
						at.Kind, at.Detail = "lock", fmt.Sprintf("spin-lock depth %d after exit", d)
						violate(at)
					}
				}
				return nil
			})
			if c.Check != nil {
				if err := c.Check(); err != nil {
					violate(ChaosViolation{Case: c.Name, Schedule: sch.Name, Packet: -1,
						Kind: "invariant", Detail: err.Error()})
				}
			}

			plane.DisarmAll()
			for _, sc := range plane.Counts() {
				a := agg[sc.Site]
				if a == nil {
					a = &faultinject.SiteCount{Site: sc.Site}
					agg[sc.Site] = a
				}
				a.Evaluated += sc.Evaluated
				a.Injected += sc.Injected
			}
		}
		// Leave the case's surfaces pointing at nil sites: Fire is
		// nil-safe and always false, so the wrapping costs one nil check
		// once the chaos run moves on.
		sUpd, sLkp, sAlloc, sKf = nil, nil, nil, nil
	}

	for _, a := range agg {
		res.SiteCounts = append(res.SiteCounts, *a)
		res.Evaluated += a.Evaluated
		res.Injected += a.Injected
	}
	sortSiteCounts(res.SiteCounts)
	return res
}

func sortSiteCounts(cs []faultinject.SiteCount) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Site < cs[j-1].Site; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
