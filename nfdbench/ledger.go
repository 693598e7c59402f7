package main

import (
	"bufio"
	"fmt"
	goruntime "runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/telemetry"
)

// ledgerRounds is how many batches per tenant the count pass replays:
// a fixed prefix of the sequence, so the counts depend on the seed
// alone.
const ledgerRounds = 16

// counts is the exact-count ledger of one count pass. Two passes over
// the same seed reproduce every field exactly except the allocation
// counts, which move by a few per 10^5 packets: Go seeds each map's
// hash per instance, so how often a map grows varies.
type counts struct {
	Batches int `json:"batches"`
	Packets int `json:"packets"`
	// Insns is retired instructions (vm.InsnCount) on the configured
	// tier; StatsInsns is the same count from vm.Stats, on the tier
	// stats force. They agree when counts are tier-independent.
	Insns       uint64            `json:"insns"`
	StatsInsns  uint64            `json:"stats_insns"`
	HelperCalls map[string]uint64 `json:"helper_calls"`
	KfuncCalls  map[string]uint64 `json:"kfunc_calls"`
	MapLookups  uint64            `json:"map_lookups"`
	MapUpdates  uint64            `json:"map_updates"`
	MapDeletes  uint64            `json:"map_deletes"`
	MapMisses   uint64            `json:"map_misses"`
	Evictions   uint64            `json:"lru_evictions"`
	// Guard counters over the packets that reached a guard.
	GuardPackets uint64 `json:"guard_packets"`
	Admitted     uint64 `json:"guard_admitted"`
	Shed         uint64 `json:"guard_shed"`
	SampledOut   uint64 `json:"guard_sampled_out"`
	ShedEnters   uint64 `json:"guard_shed_enters"`
	// Heap allocations in the layers of the configured-tier replay.
	DecodeAllocs uint64 `json:"decode_allocs"`
	BuildAllocs  uint64 `json:"build_allocs"`
	ShardAllocs  uint64 `json:"shard_allocs"`
	ReplayAllocs uint64 `json:"replay_allocs"`
	TraceEvents  uint64 `json:"trace_events"`
	TraceDrops   uint64 `json:"trace_drops"`
}

// ledger is a count pass: exact counts plus the helper/kfunc times the
// stats-attached replay measured (timings under stats run on the
// predecoded loop, so only the calls' native bodies are comparable).
type ledger struct {
	Counts   counts            `json:"counts"`
	HelperNs map[string]uint64 `json:"helper_ns"`
	KfuncNs  map[string]uint64 `json:"kfunc_ns"`
	// Tiers records the engine each of the two replays ran on.
	Tiers map[string]string `json:"tier_ran"`
	// Clock is the clock cost each stats-timed call carries.
	Clock clockCost `json:"clock"`
}

// countPass replays the first ledgerRounds batches per tenant through
// two stacks per tenant from fresh state: one as configured (exact
// instruction, guard, eviction, trace and allocation counts on the
// configured tier) and one with vm.Stats attached (helper, kfunc and
// map operation counts). Both are checked against the reference.
func countPass(w *workload, clk clockCost) (*ledger, []*outcome, error) {
	bare := &outcome{pass: "count-configured"}
	metered := &outcome{pass: "count-stats"}
	st := vm.NewStats()
	var ms goruntime.MemStats
	mallocs := func() uint64 {
		goruntime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	var plain, stat []*stack
	for _, tn := range w.tenants {
		s, err := buildStack(tn.req, nil)
		if err != nil {
			return nil, nil, err
		}
		s.mallocs = mallocs
		plain = append(plain, s)
		if s, err = buildStack(tn.req, st); err != nil {
			return nil, nil, err
		}
		stat = append(stat, s)
	}
	lg := &ledger{HelperNs: map[string]uint64{}, KfuncNs: map[string]uint64{}, Tiers: map[string]string{}, Clock: clk}
	c := &lg.Counts
	c.HelperCalls, c.KfuncCalls = map[string]uint64{}, map[string]uint64{}
	// With the collector off no sync.Pool is emptied mid-pass, so the
	// allocation counts do not depend on when collections happen.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < ledgerRounds*len(w.tenants); i++ {
		t, body := w.batch(i)
		s := plain[t]
		insns0 := s.insns()
		res, ph, err := s.ingest(body)
		bare.record(res, err)
		c.Insns += s.insns() - insns0
		c.DecodeAllocs += ph.allocs[0]
		c.BuildAllocs += ph.allocs[1]
		c.ShardAllocs += ph.allocs[2]
		c.ReplayAllocs += ph.allocs[3]
		c.Batches++
		c.Packets += res.Packets
		res, _, err = stat[t].ingest(body)
		metered.record(res, err)
	}
	for t, s := range plain {
		for _, sh := range s.shards {
			if sh.lru != nil {
				c.Evictions += sh.lru.Evictions
			}
			if g := sh.g; g != nil {
				c.GuardPackets += uint64(sh.guard.calls)
				c.Admitted += g.Admitted()
				c.Shed += g.Shed()
				c.SampledOut += g.SampledOut()
				c.ShedEnters += g.ShedEnters()
			}
		}
		if s.rec != nil {
			c.TraceEvents += s.rec.Emitted()
			c.TraceDrops += s.rec.Drops()
		}
		lg.Tiers[fmt.Sprintf("%s/configured", w.tenants[t].req.Name)] = tierRan(w.tenants[t].req)
		lg.Tiers[fmt.Sprintf("%s/stats", w.tenants[t].req.Name)] = "predecoded"
	}
	for _, name := range st.ProgNames() {
		ps, _ := st.ProgSnapshot(name)
		c.StatsInsns += ps.Insns
		for _, cs := range ps.Helpers {
			c.HelperCalls[cs.Name] += cs.Count
			lg.HelperNs[cs.Name] += cs.Ns
		}
		for _, cs := range ps.Kfuncs {
			c.KfuncCalls[cs.Name] += cs.Count
			lg.KfuncNs[cs.Name] += cs.Ns
		}
	}
	if err := c.readMapOps(st); err != nil {
		return nil, nil, err
	}
	return lg, []*outcome{bare, metered}, nil
}

// readMapOps takes the per-map operation and miss counters from the
// stats' exposition, the surface the daemon's /metrics serves them on.
func (c *counts) readMapOps(st *vm.Stats) error {
	reg := telemetry.NewRegistry()
	st.Publish(reg)
	sc := bufio.NewScanner(strings.NewReader(reg.Text()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("map stats line %q: %w", line, err)
		}
		n := uint64(v)
		switch {
		case strings.HasPrefix(line, "vm_map_misses_total"):
			c.MapMisses += n
		case !strings.HasPrefix(line, "vm_map_ops_total"):
		case strings.Contains(line, `op="lookup"`):
			c.MapLookups += n
		case strings.Contains(line, `op="update"`):
			c.MapUpdates += n
		case strings.Contains(line, `op="delete"`):
			c.MapDeletes += n
		}
	}
	return sc.Err()
}
