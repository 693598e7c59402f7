// Attack replay: every registered NF instance is driven through the
// adversarial scenario traces (pktgen.GenerateAttack), once bare and
// once behind the overload guard, asserting the resilience contract:
//
//   - no panic escapes Process and Process returns no error, exactly
//     as under chaos;
//   - the verdict is never XDP_ABORTED — in particular, load shedding
//     is graceful by construction (the guard sheds with its configured
//     verdict, never an abort);
//   - spin locks stay balanced after every packet;
//   - data-structure invariants hold after the run;
//   - estimator error bounds hold under attack, computed against the
//     per-flow ADMITTED ground truth (packets that actually reached
//     the NF), and the guard-on bound is never worse than guard-off.
//
// The grid is deterministic end to end: scenario traces are seeded and
// the guard's shed decisions derive from the virtual arrival clock and
// retired-instruction costs, so a failing cell replays bit-for-bit.

package harness

import (
	"errors"
	"fmt"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/guard"
	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
	"enetstl/internal/telemetry"
)

// AttackArm is one constructed side of a case: the instance to drive
// (guard-wrapped when the arm is guarded), its guard handle, and the
// optional estimator/invariant probes.
type AttackArm struct {
	Inst  nf.Instance
	Guard *guard.Guard // nil for the bare arm
	Est   func(key []byte) uint32
	Check func() error
}

// AttackCase is one NF×flavour under one scenario. Build constructs a
// fresh arm per replay so the two arms never share state.
type AttackCase struct {
	Name     string // "nf/flavour"
	Scenario string
	Trace    *pktgen.Trace // prepared (op mix applied), with metadata
	Build    func(guardOn bool) (AttackArm, error)
	// Bound validates est against the per-flow admitted counts after a
	// replay and returns the pinned numeric error bound (0 for pure
	// membership oracles). Nil for NFs without estimators.
	Bound func(est func(key []byte) uint32, admitted []uint32, total uint64) (bound float64, err error)
}

// AttackViolation is one contract breach.
type AttackViolation struct {
	Case     string
	Scenario string
	GuardOn  bool
	Packet   int    // -1 for post-run violations
	Kind     string // build | panic | error | verdict | lock | invariant | bound | bound-compare
	Detail   string
}

func (v AttackViolation) String() string {
	arm := "bare"
	if v.GuardOn {
		arm = "guarded"
	}
	return fmt.Sprintf("%s/%s/%s pkt=%d %s: %s", v.Case, v.Scenario, arm, v.Packet, v.Kind, v.Detail)
}

// AttackRow summarizes one replayed arm.
type AttackRow struct {
	Case     string
	Scenario string
	GuardOn  bool

	Packets  int
	Admitted uint64
	Shed     uint64
	Sampled  uint64 // head-sampled out while degraded
	WdTrips  uint64
	Degrades uint64 // transitions into degraded mode
	Bound    float64
}

// AttackResult aggregates one attack-grid run.
type AttackResult struct {
	Cases   int
	Packets int
	Rows    []AttackRow

	Violations      []AttackViolation
	ViolationsTotal uint64
}

// Failed reports whether any contract breach was observed.
func (r *AttackResult) Failed() bool { return r.ViolationsTotal > 0 }

// Sheds totals shed packets across guarded arms, per scenario ("" for
// all) — the grid's evidence that overload protection actually engaged.
func (r *AttackResult) Sheds(scenario string) uint64 {
	var n uint64
	for _, row := range r.Rows {
		if row.GuardOn && (scenario == "" || row.Scenario == scenario) {
			n += row.Shed
		}
	}
	return n
}

func (r *AttackResult) String() string {
	var admitted, shed, sampled uint64
	for _, row := range r.Rows {
		if row.GuardOn {
			admitted += row.Admitted
			shed += row.Shed
			sampled += row.Sampled
		}
	}
	out := fmt.Sprintf("attack: %d cases, %d packets, guarded arms admitted %d / shed %d / sampled-out %d, %d violations",
		r.Cases, r.Packets, admitted, shed, sampled, r.ViolationsTotal)
	for _, v := range r.Violations {
		out += "\n  " + v.String()
	}
	return out
}

// Publish exports the attack-grid counters into reg.
func (r *AttackResult) Publish(reg *telemetry.Registry) {
	reg.SetHelp("attack_violations_total", "resilience-contract breaches observed under attack replay")
	reg.Counter("attack_violations_total").Add(r.ViolationsTotal)
}

// maxAttackViolations bounds stored breaches; ViolationsTotal keeps the
// true count.
const maxAttackViolations = 100

// Attack replays every case bare and guarded and checks the resilience
// contract. Cases carry their own seeded traces, so the whole grid is
// deterministic.
func Attack(cases []AttackCase) *AttackResult {
	res := &AttackResult{Cases: len(cases)}
	violate := func(v AttackViolation) {
		res.ViolationsTotal++
		if len(res.Violations) < maxAttackViolations {
			res.Violations = append(res.Violations, v)
		}
	}

	for _, c := range cases {
		bounds := map[bool]float64{}
		haveBound := map[bool]bool{}
		for _, guardOn := range []bool{false, true} {
			arm, err := c.Build(guardOn)
			if err != nil {
				violate(AttackViolation{Case: c.Name, Scenario: c.Scenario, GuardOn: guardOn,
					Packet: -1, Kind: "build", Detail: err.Error()})
				continue
			}
			row := AttackRow{Case: c.Name, Scenario: c.Scenario, GuardOn: guardOn}
			// Each arm replays its own clone: some NFs write into the
			// packet payload, and the two arms must see identical bytes.
			tr := c.Trace.Clone()
			admitted := make([]uint32, len(tr.FlowKeys))
			var total uint64
			vms := nf.VMs(arm.Inst)

			replay(arm.Inst, tr, 0, func(i int, o outcome) error {
				row.Packets++
				res.Packets++
				at := AttackViolation{Case: c.Name, Scenario: c.Scenario, GuardOn: guardOn, Packet: i}
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
				if o.act == guard.ActionAdmit {
					admitted[tr.FlowOf[i]]++
					total++
				}
				for _, m := range vms {
					if d := m.LockHeld(); d != 0 {
						at.Kind, at.Detail = "lock", fmt.Sprintf("spin-lock depth %d after exit", d)
						violate(at)
					}
				}
				return nil
			})

			if arm.Check != nil {
				if err := arm.Check(); err != nil {
					violate(AttackViolation{Case: c.Name, Scenario: c.Scenario, GuardOn: guardOn,
						Packet: -1, Kind: "invariant", Detail: err.Error()})
				}
			}
			if c.Bound != nil && arm.Est != nil {
				bound, err := c.Bound(arm.Est, admitted, total)
				if err != nil {
					violate(AttackViolation{Case: c.Name, Scenario: c.Scenario, GuardOn: guardOn,
						Packet: -1, Kind: "bound", Detail: err.Error()})
				}
				row.Bound = bound
				bounds[guardOn] = bound
				haveBound[guardOn] = true
			}
			if g := arm.Guard; g != nil {
				row.Admitted = g.Admitted()
				row.Shed = g.Shed()
				row.Sampled = g.SampledOut()
				row.WdTrips = g.WatchdogTrips()
				row.Degrades = g.DegradeEnters()
			} else {
				row.Admitted = total
			}
			res.Rows = append(res.Rows, row)
		}
		// The guard must never loosen the pinned bound: shedding only
		// shrinks the admitted stream the bound is stated over.
		if haveBound[false] && haveBound[true] && bounds[true] > bounds[false] {
			violate(AttackViolation{Case: c.Name, Scenario: c.Scenario, GuardOn: true, Packet: -1,
				Kind:   "bound-compare",
				Detail: fmt.Sprintf("guard-on bound %.1f worse than guard-off %.1f", bounds[true], bounds[false])})
		}
	}
	return res
}
