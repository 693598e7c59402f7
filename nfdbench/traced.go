package main

import (
	"time"

	"enetstl/internal/nfd"
)

// span is one timed call at a layer boundary. Spans of one batch share
// its index; Parent is -1 for a root. A span with Calls > 0 aggregates
// that many per-packet calls of one shard in one batch, and Dur is
// their summed time. Self time is Dur minus the children's Dur.
type span struct {
	Batch  int    `json:"batch"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Tenant int    `json:"tenant"`
	Shard  int    `json:"shard"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Calls  int    `json:"calls,omitempty"`
}

// spanLog keeps every span in memory; the run writes it out at the end.
type spanLog struct {
	epoch time.Time
	spans []span
}

func (l *spanLog) add(batch, parent int, name string, tenant, shard int, start time.Time, dur int64, calls int) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{
		Batch: batch, ID: id, Parent: parent, Name: name, Tenant: tenant, Shard: shard,
		Start: start.Sub(l.epoch).Nanoseconds(), Dur: dur, Calls: calls,
	})
	return id
}

// selfNs sums self time (duration minus children) per span name.
func (l *spanLog) selfNs() map[string]int64 {
	out := map[string]int64{}
	for _, s := range l.spans {
		out[s.Name] += s.Dur
		if s.Parent >= 0 {
			out[l.spans[s.Parent].Name] -= s.Dur
		}
	}
	return out
}

// tracedTotals accumulates the traced window, in ns unless named.
type tracedTotals struct {
	batches, packets, bodyBytes int64
	rtt, server                 int64 // HTTP round trip; the daemon's own replay time
	decode, build, shard        int64
	replay, replayWall          int64 // summed shard replays; first start to last end
	guard, guardInst, inst      int64 // guard ProcessAt; Process under a guard; all Process
	insns                       uint64
	// obsInst is the Process time of tenants with stats or tracing on,
	// bareInst that of their bare (observability off) twins.
	obsInst, bareInst int64
}

// tracedPass replays the sequence twice per batch, both from fresh
// state: over HTTP to daemon modules (round-trip and handler spans, and
// the daemon's own untraced replay time from the tally), and in process
// through a stack per tenant, timed at every layer entry point. Tenants
// with stats or tracing on also replay through a bare twin, whose
// Process time is what the instance costs with observability off.
func tracedPass(d *daemon, w *workload, seconds float64, minBatches int, clk clockCost) (remote, local *outcome, log *spanLog, tot tracedTotals, err error) {
	remote, local = &outcome{pass: "traced-http"}, &outcome{pass: "traced-stack"}
	log = &spanLog{epoch: time.Now()}
	ids, err := d.createAll(w)
	if err != nil {
		return
	}
	var stacks, twins []*stack
	for _, tn := range w.tenants {
		s, e := buildStack(tn.req, nil)
		if e != nil {
			err = e
			return
		}
		s.clk = clk
		stacks = append(stacks, s)
		var twin *stack
		if o := tn.req.Options; o.Stats || o.Trace != nil {
			bare := tn.req
			bare.Options.Stats, bare.Options.Trace = false, nil
			if twin, err = buildStack(bare, nil); err != nil {
				return
			}
			twin.clk = clk
		}
		twins = append(twins, twin)
	}

	step := func(timed bool) {
		i := remote.batches()
		t, body := w.batch(i)
		start := time.Now()
		res, rtt, perr := d.post(ids[t], body)
		remote.record(res, perr)
		s := stacks[t]
		s.setTiming(timed)
		insns0 := s.insns()
		lstart := time.Now()
		lres, ph, lerr := s.ingest(body)
		ldur := time.Since(lstart)
		local.record(lres, lerr)
		var bare phases
		if twins[t] != nil {
			twins[t].setTiming(timed)
			_, bare, _ = twins[t].ingest(body) // its tallies equal local's; only its timing is used
		}
		if !timed {
			return
		}
		root := log.add(i, -1, "nfd.roundtrip", t, -1, start, rtt.Nanoseconds(), 0)
		hid := log.add(i, root, "nfd.handler", t, -1, start, d.handlerNs.Load(), 0)
		log.add(i, hid, "daemon.replay", t, -1, start, res.Ns, 0)
		in := log.add(i, -1, "ingest", t, -1, lstart, ldur.Nanoseconds(), 0)
		log.add(i, in, "nfd.decode", t, -1, lstart, ph.decode.Nanoseconds(), 0)
		log.add(i, in, "runtime.build", t, -1, lstart.Add(ph.decode), ph.build.Nanoseconds(), 0)
		log.add(i, in, "pktgen.shard", t, -1, lstart.Add(ph.decode+ph.build), ph.shard.Nanoseconds(), 0)
		for k, r := range ph.replay {
			rid := log.add(i, in, "harness.replay", t, k, r.start, r.dur.Nanoseconds(), 0)
			parent := rid
			if r.guardOps > 0 {
				parent = log.add(i, rid, "guard.process_at", t, k, r.start, r.guardNs, r.guardOps)
				tot.guard += r.guardNs
				tot.guardInst += r.instNs
			}
			log.add(i, parent, "vm.process", t, k, r.start, r.instNs, r.instOps)
			tot.replay += r.dur.Nanoseconds()
			tot.inst += r.instNs
		}
		if n := len(ph.replay); n > 0 {
			last := ph.replay[n-1]
			tot.replayWall += last.start.Add(last.dur).Sub(ph.replay[0].start).Nanoseconds()
		}
		if twins[t] != nil && len(bare.replay) == len(ph.replay) {
			for k := range ph.replay {
				tot.obsInst += ph.replay[k].instNs
				tot.bareInst += bare.replay[k].instNs
			}
		}
		tot.batches++
		tot.packets += int64(res.Packets)
		tot.bodyBytes += int64(len(body))
		tot.rtt += rtt.Nanoseconds()
		tot.server += res.Ns
		tot.decode += ph.decode.Nanoseconds()
		tot.build += ph.build.Nanoseconds()
		tot.shard += ph.shard.Nanoseconds()
		tot.insns += s.insns() - insns0
	}

	for i := 0; i < warmRounds*len(ids); i++ {
		step(false)
	}
	limit := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for n := 0; time.Since(start) < limit || n < minBatches || n%len(ids) != 0; n++ {
		step(true)
	}
	err = d.removeAll(ids)
	return
}

// moduleTiers is the record of which engine a module's VMs run.
type moduleTiers struct {
	Module     string `json:"module"`
	Configured string `json:"configured_tier"`
	// Ran maps each pass to the tier that actually executed there.
	Ran map[string]string `json:"tier_ran"`
}

// tierRan is the engine a VM configured with o executes, following the
// VM's dispatch: attached stats need per-instruction attribution, which
// only the predecoded loop provides, so they move a jit VM onto it;
// an attached recorder moves only the sampled packets.
func tierRan(o nfd.CreateRequest) string {
	opts := o.Options.Canon()
	switch {
	case opts.Tier == "wire":
		return "wire"
	case opts.Stats:
		return "predecoded"
	case opts.Tier == "jit" && opts.Trace != nil:
		return "jit (sampled packets: predecoded)"
	}
	return opts.Tier
}
