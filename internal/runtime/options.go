// Package runtime defines the unified options-based configuration
// surface for constructing NF instances. One serializable Options
// struct replaces the historical sprawl of process-global setters
// (vm.SetDefaultTier, maps.SetImpl, vm.SetWireInterp, ...): every
// builder — the nfd daemon's JSON module API, the nfrun/enetstl-bench
// CLIs, the benchmark harnesses — resolves the same struct, so a JSON
// request body and a CLI invocation construct bit-identically the same
// instance.
//
// The legacy globals remain as compat shims: Defaults() reads them, so
// a process that still calls vm.SetDefaultTier gets that tier as the
// baseline every Options resolution inherits. New code should never
// touch the globals directly; per-instance configuration goes through
// Under, which scopes the construction-time knobs to one build.
package runtime

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/guard"
	"enetstl/internal/pktgen"
	"enetstl/internal/rpool"
	"enetstl/internal/trace"
)

// MaxShards bounds Options.Shards: every shard is a built instance and,
// in the daemon, a goroutine per batch, so one request must not be able
// to ask for a million of them.
const MaxShards = pktgen.MaxShards

// ErrQuota reports a per-tenant resource quota breach at construction
// time (map memory, rpool capacity). The daemon maps it to HTTP 429.
var ErrQuota = errors.New("runtime: quota exceeded")

// Options is the per-instance runtime configuration. The zero value
// means "inherit the process defaults" for every field; the JSON
// encoding is the schema the nfd daemon accepts and the -options flag
// of the CLIs round-trips.
type Options struct {
	// Tier selects the VM execution tier for VM-backed flavours:
	// "wire" | "predecoded" | "jit". Empty inherits the process default.
	Tier string `json:"tier,omitempty"`
	// MapImpl selects the hash map core: "bucket" | "flat". Empty
	// inherits the process default.
	MapImpl string `json:"map_impl,omitempty"`
	// Shards is the RSS shard count (instances replaying concurrently
	// over a flow-hash-partitioned stream), at most MaxShards. 0 and 1
	// both mean unsharded.
	Shards int `json:"shards,omitempty"`
	// PerCPU backs sharded instances with one shared per-CPU map
	// (private per-shard copies) where the NF has per-CPU wiring.
	PerCPU bool `json:"percpu,omitempty"`
	// Stats enables per-instance VM statistics (the bpf_stats
	// analogue), attached at build time without the global registry.
	Stats bool `json:"stats,omitempty"`
	// Trace attaches a flight recorder with this configuration.
	Trace *TraceOptions `json:"trace,omitempty"`
	// Guard fronts the instance with the overload-guard plane.
	Guard *GuardOptions `json:"guard,omitempty"`
	// Quota sets per-tenant resource ceilings, enforced via the guard
	// plane (insn budget) and at construction (map memory, rpool).
	Quota *Quota `json:"quota,omitempty"`
}

// TraceOptions configures the per-instance flight recorder.
type TraceOptions struct {
	// Capacity is the ring size (rounded up to a power of two).
	Capacity int `json:"capacity,omitempty"`
	// SampleRate is the head-sampling rate in [0,1]; 0 defaults to 1.
	SampleRate float64 `json:"sample_rate,omitempty"`
	// Seed drives the deterministic sampling decision.
	Seed uint64 `json:"seed,omitempty"`
}

// Config converts to the trace package's configuration.
func (t *TraceOptions) Config() trace.Config {
	cfg := trace.Config{Capacity: t.Capacity, SampleRate: t.SampleRate, Seed: t.Seed}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = 1
	}
	return cfg
}

// GuardOptions is the serializable face of guard.Config (the CostFn
// hook is code, not configuration, and stays out).
type GuardOptions struct {
	Enabled        bool    `json:"enabled,omitempty"`
	InsnBudget     uint64  `json:"insn_budget,omitempty"`
	AutoBudget     int     `json:"auto_budget,omitempty"`
	Headroom       float64 `json:"headroom,omitempty"`
	BurstTicks     uint64  `json:"burst_ticks,omitempty"`
	ResumeFrac     float64 `json:"resume_frac,omitempty"`
	NativeCost     uint64  `json:"native_cost,omitempty"`
	ShedVerdict    uint64  `json:"shed_verdict,omitempty"`
	WatchdogFactor uint64  `json:"watchdog_factor,omitempty"`
	WatchdogTrips  int     `json:"watchdog_trips,omitempty"`
	RecoverPackets int     `json:"recover_packets,omitempty"`
	WatermarkEvery int     `json:"watermark_every,omitempty"`
}

// Config converts to the guard package's configuration.
func (g *GuardOptions) Config() guard.Config {
	return guard.Config{
		Enabled:        g.Enabled,
		InsnBudget:     g.InsnBudget,
		AutoBudget:     g.AutoBudget,
		Headroom:       g.Headroom,
		BurstTicks:     g.BurstTicks,
		ResumeFrac:     g.ResumeFrac,
		NativeCost:     g.NativeCost,
		ShedVerdict:    g.ShedVerdict,
		WatchdogFactor: g.WatchdogFactor,
		WatchdogTrips:  g.WatchdogTrips,
		RecoverPackets: g.RecoverPackets,
		WatermarkEvery: g.WatermarkEvery,
	}
}

// Quota sets per-tenant resource ceilings. Zero fields are unlimited.
type Quota struct {
	// InsnBudget caps sustained datapath spend: it becomes a fixed
	// token-bucket budget (instructions per arrival tick) on the
	// instance's guard. Excess packets are shed, never queued.
	InsnBudget uint64 `json:"insn_budget,omitempty"`
	// MapBytes caps the summed arena footprint of every map the
	// instance constructs; breaching it fails the build with ErrQuota.
	MapBytes int `json:"map_bytes,omitempty"`
	// RPoolCap caps the capacity of any single random pool the
	// instance constructs; breaching it fails the build with ErrQuota.
	RPoolCap int `json:"rpool_cap,omitempty"`
}

// GuardConfig resolves the guard configuration the instance should run
// behind: the explicit Guard options, tightened by the insn-budget
// quota (a quota forces the guard on with a fixed, non-calibrating
// budget). ok is false when no guard is requested at all.
func (o Options) GuardConfig() (cfg guard.Config, ok bool) {
	if o.Guard != nil {
		cfg = o.Guard.Config()
		ok = cfg.Enabled
	}
	if o.Quota != nil && o.Quota.InsnBudget > 0 {
		cfg.Enabled = true
		cfg.InsnBudget = o.Quota.InsnBudget
		ok = true
	}
	return cfg, ok
}

// ResolveTier parses the tier, falling back to the process default for
// the empty string (the vm.SetDefaultTier compat shim).
func (o Options) ResolveTier() (vm.Tier, error) {
	if o.Tier == "" {
		return vm.DefaultTier(), nil
	}
	return vm.ParseTier(o.Tier)
}

// ResolveMapImpl parses the map core selector, falling back to the
// process default for the empty string (the maps.SetImpl compat shim).
func (o Options) ResolveMapImpl() (maps.Impl, error) {
	switch o.MapImpl {
	case "":
		return maps.CurrentImpl(), nil
	case "bucket":
		return maps.ImplBucket, nil
	case "flat":
		return maps.ImplFlat, nil
	}
	return 0, fmt.Errorf("runtime: unknown map_impl %q (bucket|flat)", o.MapImpl)
}

// Validate checks every field without resolving process defaults.
func (o Options) Validate() error {
	if _, err := o.ResolveTier(); err != nil {
		return err
	}
	if _, err := o.ResolveMapImpl(); err != nil {
		return err
	}
	if o.Shards < 0 || o.Shards > MaxShards {
		return fmt.Errorf("runtime: shards %d outside [0,%d]", o.Shards, MaxShards)
	}
	if t := o.Trace; t != nil {
		if t.SampleRate < 0 || t.SampleRate > 1 {
			return fmt.Errorf("runtime: trace sample_rate %v outside [0,1]", t.SampleRate)
		}
		if t.Capacity < 0 {
			return fmt.Errorf("runtime: negative trace capacity %d", t.Capacity)
		}
	}
	if g := o.Guard; g != nil && (g.ResumeFrac < 0 || g.ResumeFrac > 1) {
		return fmt.Errorf("runtime: guard resume_frac %v outside [0,1]", g.ResumeFrac)
	}
	if q := o.Quota; q != nil && (q.MapBytes < 0 || q.RPoolCap < 0) {
		return fmt.Errorf("runtime: negative quota")
	}
	return nil
}

// Defaults returns the Options a zero struct resolves to right now:
// the process-global tier and map core the legacy setters control.
// This is the compat-shim direction — old code that flips a global
// changes what empty Options fields mean.
func Defaults() Options {
	return Options{
		Tier:    vm.DefaultTier().String(),
		MapImpl: maps.CurrentImpl().String(),
	}
}

// Canon returns o with inheritable empty fields pinned to their
// current resolution, so the JSON form is self-contained: two Canon
// outputs are equal iff they construct identical instances.
func (o Options) Canon() Options {
	d := Defaults()
	if o.Tier == "" {
		o.Tier = d.Tier
	}
	if o.MapImpl == "" {
		o.MapImpl = d.MapImpl
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	return o
}

// JSON renders the canonical schema the daemon accepts.
func (o Options) JSON() ([]byte, error) {
	return json.MarshalIndent(o, "", "  ")
}

// FromJSON decodes Options strictly: unknown fields are an error, so a
// typo in a module-create request fails loudly instead of silently
// inheriting a default.
func FromJSON(data []byte) (Options, error) {
	var o Options
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&o); err != nil {
		return Options{}, fmt.Errorf("runtime: bad options JSON: %w", err)
	}
	if err := o.Validate(); err != nil {
		return Options{}, err
	}
	return o, nil
}

// Install makes o the process-wide default through the compat shims —
// the sanctioned "configure everything this process builds" entry the
// batch CLIs use in place of calling the global setters directly.
// Per-instance configuration should use Under instead.
func Install(o Options) error {
	tier, err := o.ResolveTier()
	if err != nil {
		return err
	}
	impl, err := o.ResolveMapImpl()
	if err != nil {
		return err
	}
	vm.SetDefaultTier(tier)
	maps.SetImpl(impl)
	if o.Stats {
		vm.SetGlobalStats(true)
	}
	if q := o.Quota; q != nil && q.RPoolCap > 0 {
		rpool.SetCapLimit(q.RPoolCap)
	}
	return nil
}

// buildMu serializes scoped builds: Under briefly retargets the
// construction-time shims (tier, map core, rpool cap, map-memory
// meter), and the lock keeps concurrent builders — the daemon creates
// modules from concurrent HTTP handlers — from observing each other's
// settings. Replay never takes this lock; it guards construction only.
var buildMu sync.Mutex

// Under runs build with o's construction-time settings in effect and
// the previous settings restored afterwards, enforcing the map-memory
// and rpool-capacity quotas against everything the build constructs.
// This is how per-instance configuration reaches constructors that
// read the package globals deep inside NF builders, without the
// configuration leaking to any other build.
func Under[T any](o Options, build func() (T, error)) (T, error) {
	var zero T
	tier, err := o.ResolveTier()
	if err != nil {
		return zero, err
	}
	impl, err := o.ResolveMapImpl()
	if err != nil {
		return zero, err
	}

	buildMu.Lock()
	defer buildMu.Unlock()
	prevTier, prevImpl, prevCap := vm.DefaultTier(), maps.CurrentImpl(), rpool.CapLimit()
	defer func() {
		vm.SetDefaultTier(prevTier)
		maps.SetImpl(prevImpl)
		rpool.SetCapLimit(prevCap)
		maps.SetAccount(nil)
	}()
	vm.SetDefaultTier(tier)
	maps.SetImpl(impl)

	var mapBytes int
	var rpoolCap int
	if q := o.Quota; q != nil {
		rpoolCap = q.RPoolCap
	}
	rpool.SetCapLimit(rpoolCap)
	maps.SetAccount(func(n int) { mapBytes += n })

	v, err := build()
	if err != nil {
		if errors.Is(err, rpool.ErrCapLimit) {
			return zero, fmt.Errorf("%w: %v", ErrQuota, err)
		}
		return zero, err
	}
	if q := o.Quota; q != nil && q.MapBytes > 0 && mapBytes > q.MapBytes {
		return zero, fmt.Errorf("%w: maps use %d arena bytes, quota %d", ErrQuota, mapBytes, q.MapBytes)
	}
	return v, nil
}
