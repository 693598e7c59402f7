package guard

import (
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
	"enetstl/internal/trace"
)

// Guarded is an nf.Instance with the overload guard on its ingress. It
// delegates VM()/Stages() like obs.Instrument so harness attachment
// (stats, flight recorders, chaos map wrapping) sees through it.
type Guarded struct {
	inner nf.Instance
	g     *Guard
	vms   []*vm.VM
}

// Wrap puts g in front of inst. The instance's VMs (including pipeline
// stages') are harvested once for instruction metering.
func (g *Guard) Wrap(inst nf.Instance) *Guarded {
	return &Guarded{inner: inst, g: g, vms: nf.VMs(inst)}
}

// Guard returns the attached guard.
func (w *Guarded) Guard() *Guard { return w.g }

// Name returns the inner NF's name.
func (w *Guarded) Name() string { return w.inner.Name() }

// Flavor returns the inner NF's flavour.
func (w *Guarded) Flavor() nf.Flavor { return w.inner.Flavor() }

// VM exposes the inner machine so harness attachment sees through the
// guard; nil when the inner instance is not VM-backed.
func (w *Guarded) VM() *vm.VM {
	if v, ok := w.inner.(interface{ VM() *vm.VM }); ok {
		return v.VM()
	}
	return nil
}

// Stages likewise unwraps pipeline instances.
func (w *Guarded) Stages() []nf.Instance {
	if s, ok := w.inner.(interface{ Stages() []nf.Instance }); ok {
		return s.Stages()
	}
	return nil
}

// Process handles one packet on the default arrival clock (one tick per
// packet) — the drop-in path for replay loops that carry no scenario
// arrival metadata.
func (w *Guarded) Process(pkt []byte) (uint64, error) {
	if !w.g.cfg.Enabled {
		return w.inner.Process(pkt)
	}
	v, _, err := w.ProcessAt(pkt, w.g.pktIdx)
	return v, err
}

// insnTotal sums retired instructions across the instance's VMs — the
// deterministic per-packet cost meter. Both interpreter loops
// accumulate vm.InsnCount, so this needs no stats attachment.
func (w *Guarded) insnTotal() uint64 {
	var t uint64
	for _, m := range w.vms {
		t += m.InsnCount
	}
	return t
}

// ProcessAt handles one packet arriving at the given virtual tick and
// reports what the guard did with it. Attack replays call this with the
// trace's arrival clock; ticks must be monotone non-decreasing per
// guard.
func (w *Guarded) ProcessAt(pkt []byte, tick uint64) (uint64, Action, error) {
	g := w.g
	if !g.cfg.Enabled {
		v, err := w.inner.Process(pkt)
		return v, ActionAdmit, err
	}
	g.pktIdx++

	// Refill from the arrival clock. The first packet anchors it.
	if !g.haveTick {
		g.haveTick = true
		g.lastTick = tick
	} else if dt := tick - g.lastTick; dt > 0 {
		g.lastTick = tick
		if g.budget > 0 {
			g.tokens += int64(dt * g.budget)
			if g.tokens > g.capacity {
				g.tokens = g.capacity
			}
		}
	}

	// Shed state, with hysteresis: once the bucket is exhausted the
	// guard rejects at ingress until refills lift it past the resume
	// mark. Shed packets cost nothing, so recovery is pure refill.
	if g.shedding {
		if g.tokens >= g.resume {
			g.setShedding(false, pkt)
		} else {
			g.shedPkts.Add(1)
			return g.cfg.ShedVerdict, ActionShed, nil
		}
	}

	// Degraded head-sampling: admit 1 in HeadSample, pass the rest
	// through unprocessed (the sketch keeps a thinned view instead of
	// the NF burning budget on every packet).
	if g.degraded && g.cfg.HeadSample > 1 && g.pktIdx%uint64(g.cfg.HeadSample) != 0 {
		g.sampledOut.Add(1)
		return uint64(vm.XDPPass), ActionSample, nil
	}

	before := w.insnTotal()
	v, err := w.inner.Process(pkt)
	cost := w.insnTotal() - before
	if g.cfg.CostFn != nil {
		cost = g.cfg.CostFn(pkt)
	} else if cost == 0 {
		cost = g.cfg.NativeCost
	}
	g.admitted.Add(1)
	g.account(cost, pkt)
	return v, ActionAdmit, err
}

// account charges one admitted packet's cost and runs the watchdog and
// watermark machinery.
func (g *Guard) account(cost uint64, pkt []byte) {
	// Calibration: the first AutoBudget packets set the budget from the
	// observed mean cost. No shedding until then.
	if g.budget == 0 {
		g.calSum += cost
		g.calN++
		if g.calN >= g.cfg.AutoBudget {
			g.setBudget(uint64(float64(g.calSum)/float64(g.calN)*g.cfg.Headroom + 0.5))
		}
		return
	}

	g.tokens -= int64(cost)
	if g.tokens <= 0 && !g.shedding {
		g.setShedding(true, pkt)
	}

	// Watchdog: runaway per-packet cost. One event per streak start.
	if f := g.cfg.WatchdogFactor; f > 0 && cost > f*g.budget {
		g.wdTrips.Add(1)
		g.wdStreak++
		g.clean = 0
		if g.wdStreak == 1 {
			g.emit(trace.KindWatchdog, pkt, cost)
		}
		if !g.degraded && g.wdStreak >= g.cfg.WatchdogTrips {
			g.setDegraded(true, pkt)
		}
	} else {
		g.wdStreak = 0
		if g.degraded {
			g.clean++
		}
	}

	// Watermarks, on a fixed admitted-packet cadence.
	if len(g.marks) > 0 || g.degraded {
		if g.admitted.Load()%uint64(g.cfg.WatermarkEvery) == 0 {
			switch {
			case !g.degraded && g.pressure(func(m Watermark) float64 { return m.High }):
				g.setDegraded(true, pkt)
			case g.degraded && g.clean >= g.cfg.RecoverPackets &&
				!g.pressure(func(m Watermark) float64 { return m.Low }):
				g.setDegraded(false, pkt)
			}
		}
	}
}
