// Package nfd is the long-lived NF daemon: an HTTP control plane that
// loads, configures, runs, and tears down NF module instances at
// runtime. A module is one catalog NF built under a per-instance
// runtime.Options value (tier, map core, shards, quotas, guard,
// tracing) — the same serializable struct the CLIs parse from flags, so
// a JSON request body and a flag set construct bit-identically the same
// instance. Packet streams are pushed in batches over HTTP and replayed
// through the module's persistent instances; the obs plane mounts on
// the same listener.
package nfd

import (
	"fmt"
	"sync"
	"time"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/guard"
	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
	"enetstl/internal/telemetry"
	"enetstl/internal/trace"
)

// State is a module's lifecycle position. Transitions only move
// forward: created → attached → running → draining → deleted.
type State int

// The lifecycle states.
const (
	// StateCreated: instances are built and tables preloaded.
	StateCreated State = iota
	// StateAttached: instrumentation (stats, recorder, metrics
	// gatherer) is wired; the module is visible at /metrics.
	StateAttached
	// StateRunning: at least one packet batch has been replayed.
	StateRunning
	// StateDraining: a delete is waiting for the in-flight batch.
	StateDraining
	// StateDeleted: terminal; the module is gone from the registry.
	StateDeleted
)

func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateAttached:
		return "attached"
	case StateRunning:
		return "running"
	case StateDraining:
		return "draining"
	case StateDeleted:
		return "deleted"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// CreateRequest is the POST /modules body.
type CreateRequest struct {
	// Name is the catalog NF name (nfcatalog.Names).
	Name string `json:"name"`
	// Flavor is kernel | ebpf | enetstl.
	Flavor string `json:"flavor"`
	// Options configures the instance; the zero value inherits the
	// daemon's process defaults.
	Options runtime.Options `json:"options,omitempty"`
	// Trace seeds the module's tables (flow keys preloaded into
	// switches, filters, classifiers) and anchors the estimator flow
	// keys. Defaults to the spec defaults (256 flows, seed 1).
	Trace runtime.TraceSpec `json:"trace,omitempty"`
}

// Module is one live NF instance set (one instance per shard) plus its
// instrumentation. Batches and lifecycle transitions serialize on mu,
// so a delete draining the module waits for the in-flight batch; within
// a batch the shards replay concurrently, each into its own stats.
type Module struct {
	ID     string          `json:"id"`
	Name   string          `json:"name"`
	Flavor string          `json:"flavor"`
	Opts   runtime.Options `json:"options"`

	mu       sync.Mutex
	state    State
	insts    []nf.Instance // per shard; guard-wrapped when guarded
	guards   []*guard.Guard
	built    []nfcatalog.Built
	sharded  *nfcatalog.Sharded
	stats    []*vm.Stats // per shard; nil when stats are off
	rec      *trace.Recorder
	flows    [][nf.KeyLen]byte
	tickBase []uint64
	batches  uint64
	packets  uint64
	shed     uint64
	created  time.Time
}

// Status is the serializable module view.
type Status struct {
	ID      string          `json:"id"`
	Name    string          `json:"name"`
	Flavor  string          `json:"flavor"`
	State   string          `json:"state"`
	Options runtime.Options `json:"options"`
	Shards  int             `json:"shards"`
	Batches uint64          `json:"batches"`
	Packets uint64          `json:"packets"`
	Shed    uint64          `json:"shed"`
	Guarded bool            `json:"guarded"`
}

// Status snapshots the module.
func (m *Module) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Status{
		ID: m.ID, Name: m.Name, Flavor: m.Flavor,
		State: m.state.String(), Options: m.Opts,
		Shards: len(m.insts), Batches: m.batches, Packets: m.packets,
		Shed: m.shed, Guarded: len(m.guards) > 0,
	}
}

// Registry is the concurrency-safe module table.
type Registry struct {
	mu   sync.RWMutex
	mods map[string]*Module
	seq  uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{mods: make(map[string]*Module)}
}

// List returns the module statuses, in no particular order.
func (r *Registry) List() []Status {
	r.mu.RLock()
	mods := make([]*Module, 0, len(r.mods))
	for _, m := range r.mods {
		mods = append(mods, m)
	}
	r.mu.RUnlock()
	out := make([]Status, len(mods))
	for i, m := range mods {
		out[i] = m.Status()
	}
	return out
}

// Get looks a module up by id.
func (r *Registry) Get(id string) (*Module, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.mods[id]
	return m, ok
}

// Create builds a module from req: instances constructed under the
// request's scoped Options (created), then instrumentation attached
// (attached). Quota breaches surface as runtime.ErrQuota.
func (r *Registry) Create(req CreateRequest) (*Module, error) {
	flavor, err := nf.ParseFlavor(req.Flavor)
	if err != nil {
		return nil, err
	}
	if !knownName(req.Name) {
		return nil, fmt.Errorf("unknown NF %q", req.Name)
	}
	if !flavorSupported(req.Name, flavor) {
		return nil, fmt.Errorf("%s has no %s flavour", req.Name, flavor)
	}
	o := req.Options
	if err := o.Validate(); err != nil {
		return nil, err
	}
	seedTrace, err := req.Trace.Build()
	if err != nil {
		return nil, err
	}
	shards := o.Shards
	if shards <= 0 {
		shards = 1
	}

	m := &Module{
		Name: req.Name, Flavor: flavor.String(), Opts: o.Canon(),
		flows: seedTrace.FlowKeys, tickBase: make([]uint64, shards),
		created: time.Now(),
	}

	// Construction, scoped: tier/map-core selection and the map-memory
	// and rpool quotas apply to everything built here and nothing else.
	m.built, err = runtime.Under(o, func() ([]nfcatalog.Built, error) {
		if shards == 1 {
			b, err := nfcatalog.BuildFull(req.Name, flavor, seedTrace)
			if err != nil {
				return nil, err
			}
			return []nfcatalog.Built{b}, nil
		}
		var sh *nfcatalog.Sharded
		var err error
		if o.PerCPU {
			sh, err = nfcatalog.NewShardedPerCPU(req.Name, flavor, shards)
			if err != nil {
				return nil, err
			}
		} else {
			sh = nfcatalog.NewSharded(req.Name, flavor)
		}
		nfcatalog.PrepareTrace(req.Name, seedTrace)
		subs := seedTrace.Shard(shards)
		out := make([]nfcatalog.Built, shards)
		for i := range out {
			b, err := sh.BuildFull(i, subs[i])
			if err != nil {
				return nil, err
			}
			out[i] = b
		}
		m.sharded = sh
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	m.state = StateCreated

	// Attachment: one vm.Stats per shard (the per-CPU idiom, so shards
	// replay concurrently; never the global VM registry — a daemon must
	// retain nothing after module delete), one flight recorder shared
	// through its MPSC ring, guards carrying the catalog's per-NF policy
	// wiring.
	if t := o.Trace; t != nil {
		m.rec = trace.NewRecorder(t.Config())
	}
	gcfg, guarded := o.GuardConfig()
	m.insts = make([]nf.Instance, shards)
	for i, b := range m.built {
		inst := b.Inst
		if o.Stats {
			st := vm.NewStats()
			m.stats = append(m.stats, st)
			vms := nf.VMs(inst)
			for _, machine := range vms {
				machine.SetStats(st)
			}
			if len(vms) == 0 {
				inst = runtime.Meter(inst, st)
			}
		}
		if m.rec != nil {
			runtime.AttachRecorder(inst, m.rec)
		}
		if guarded {
			g := guard.New(req.Name, i, gcfg)
			b.WireGuard(g)
			m.guards = append(m.guards, g)
			inst = g.Wrap(inst)
		}
		m.insts[i] = inst
	}
	m.state = StateAttached

	r.mu.Lock()
	r.seq++
	m.ID = fmt.Sprintf("%s-%d", req.Name, r.seq)
	r.mods[m.ID] = m
	r.mu.Unlock()
	return m, nil
}

// Ingest replays one batch spec through the module. The batch trace
// gets the NF's op mix (exactly as the CLIs prepare traces) unless it
// is a raw replay, then is hash-partitioned across the module's shards,
// which replay concurrently. Guard ticks continue from the previous
// batch per shard.
func (m *Module) Ingest(spec runtime.TraceSpec) (harness.BatchResult, error) {
	tr, err := spec.Build()
	if err != nil {
		return harness.BatchResult{}, err
	}
	if len(spec.Raw) == 0 {
		nfcatalog.PrepareTrace(m.Name, tr)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != StateAttached && m.state != StateRunning {
		return harness.BatchResult{}, fmt.Errorf("module is %s", m.state)
	}

	subs := []*pktgen.Trace{tr}
	if len(m.insts) > 1 {
		subs = tr.Shard(len(m.insts))
	}
	total, err := harness.ReplayShards(m.insts, subs, m.tickBase)
	m.state = StateRunning
	m.batches++
	m.packets += uint64(total.Packets)
	m.shed += total.Shed
	return total, err
}

// Estimate probes the module's control-plane estimator for key,
// summing across shards (the merge-on-read a kernel control plane
// performs over per-CPU maps). ok is false when the NF has none.
func (m *Module) Estimate(key []byte) (uint32, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sharded != nil {
		return m.sharded.Estimate(key)
	}
	var est uint32
	ok := false
	for _, b := range m.built {
		if b.Est != nil {
			est += b.Est(key)
			ok = true
		}
	}
	return est, ok
}

// FlowKey resolves seed-trace flow i's key, for estimator probes by
// flow index.
func (m *Module) FlowKey(i int) ([]byte, bool) {
	if i < 0 || i >= len(m.flows) {
		return nil, false
	}
	return m.flows[i][:], true
}

// DrainTrace consumes up to max events from the module's flight
// recorder; nil when tracing is off.
func (m *Module) DrainTrace(max int) []trace.Event {
	if m.rec == nil {
		return nil
	}
	return m.rec.Drain(max)
}

// Publish writes the module's live counters into reg — the per-module
// gatherer behind the daemon's /metrics.
func (m *Module) Publish(reg *telemetry.Registry) {
	m.mu.Lock()
	rec := m.rec
	state := m.state
	batches, packets := m.batches, m.packets
	// Ingest's shards write their stats and guards while mu is held, and
	// neither is safe for concurrent reads, so both publish under mu.
	if st := m.mergedStats(); st != nil {
		st.Publish(reg)
	}
	for _, g := range m.guards {
		g.Publish(reg)
	}
	m.mu.Unlock()
	lbl := []telemetry.Label{
		telemetry.L("module", m.ID), telemetry.L("nf", m.Name),
		telemetry.L("flavor", m.Flavor),
	}
	reg.SetHelp("nfd_module_state", "lifecycle state (created=0 attached=1 running=2 draining=3)")
	reg.Gauge("nfd_module_state", lbl...).Set(float64(state))
	reg.SetHelp("nfd_module_batches_total", "packet batches replayed")
	reg.Counter("nfd_module_batches_total", lbl...).Add(batches)
	reg.SetHelp("nfd_module_packets_total", "packets pushed through the module")
	reg.Counter("nfd_module_packets_total", lbl...).Add(packets)
	if rec != nil {
		rec.Publish(reg)
	}
}

// mergedStats merges the per-shard stats on read, the way a kernel
// control plane sums per-CPU map values; nil when stats are off. The
// caller holds mu.
func (m *Module) mergedStats() *vm.Stats {
	switch len(m.stats) {
	case 0:
		return nil
	case 1:
		return m.stats[0]
	}
	merged := vm.NewStats()
	for _, st := range m.stats {
		merged.Merge(st)
	}
	return merged
}

// delete transitions the module out of service: it waits (on mu) for
// any in-flight batch, marks draining, detaches instrumentation, and
// marks deleted. Idempotence is the registry's job.
func (m *Module) delete() {
	m.mu.Lock()
	m.state = StateDraining
	insts := m.insts
	m.mu.Unlock()
	// Drain point: the batch that was in flight when Delete was called
	// has finished (we held mu); new batches see draining and bounce.
	for _, inst := range insts {
		runtime.AttachRecorder(inst, nil)
	}
	m.mu.Lock()
	m.state = StateDeleted
	m.insts, m.guards, m.built, m.stats, m.rec = nil, nil, nil, nil, nil
	m.sharded = nil
	m.mu.Unlock()
}

// Delete gracefully removes id: the module drains (in-flight batch
// completes, subsequent batches are rejected), its instrumentation
// detaches, and it leaves the registry.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	m, ok := r.mods[id]
	if ok {
		delete(r.mods, id)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("no module %q", id)
	}
	m.delete()
	return nil
}

// Close drains and deletes every module — daemon shutdown.
func (r *Registry) Close() {
	for _, s := range r.List() {
		r.Delete(s.ID) //nolint:errcheck // racing deletes are fine
	}
}

// Publish writes every module's counters into reg.
func (r *Registry) Publish(reg *telemetry.Registry) {
	r.mu.RLock()
	mods := make([]*Module, 0, len(r.mods))
	for _, m := range r.mods {
		mods = append(mods, m)
	}
	r.mu.RUnlock()
	reg.SetHelp("nfd_modules", "live modules in the registry")
	reg.Gauge("nfd_modules").Set(float64(len(mods)))
	for _, m := range mods {
		m.Publish(reg)
	}
}

func knownName(name string) bool {
	for _, n := range nfcatalog.Names() {
		if n == name {
			return true
		}
	}
	return false
}

func flavorSupported(name string, fl nf.Flavor) bool {
	for _, f := range nfcatalog.SupportedFlavors(name) {
		if f == fl {
			return true
		}
	}
	return false
}
