package main

import (
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"syscall"

	"enetstl/internal/nf"
	"enetstl/internal/nfd"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
)

const (
	// batchPackets is the packet count of every POST body. Packets are
	// always nf.PktSize (64 B), where per-packet cost dominates.
	batchPackets = 4096
	benignFlows  = 1024
	benignZipf   = 1.1
	// rawPool is how many distinct raw bodies raw-ingest encodes up
	// front and cycles through, so base64/JSON encoding on the client
	// stays out of the closed loop.
	rawPool = 16
	// probeFlows is how many estimator probes each tenant gets per key
	// kind (seed-trace flow index and batch-0 heavy-hitter key).
	probeFlows = 8
)

// tenant is one module of a workload and the stream of batch bodies it
// receives.
type tenant struct {
	req nfd.CreateRequest
	// body returns the tenant's j-th batch body (a runtime.TraceSpec).
	body func(j int) []byte
	// probes are the estimates query strings checked at the end of a
	// pass.
	probes []string
}

// workload is a seeded set of tenants. Batch i of the run goes to
// tenant i mod len(tenants), so multi-tenant workloads alternate.
type workload struct {
	name    string
	seed    int64
	tenants []*tenant
	offHeap []byte // mmap'd raw bodies, released by close
}

var workloadNames = []string{"raw-ingest", "sketch-vm", "table-mix", "observed"}

// mix derives a positive, non-zero generator seed from the workload
// seed and two stream indices (splitmix64 finaliser), so every batch
// and table seed is a pure function of the --seed argument.
func mix(seed int64, a, b uint64) int64 {
	x := uint64(seed) ^ (a+1)*0x9e3779b97f4a7c15 ^ (b+1)*0xd1b54a32d192ed03
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>1) | 1
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are marshalled
	}
	return b
}

// tableSpec is the create-time trace: it preloads tables with (and
// anchors estimator flow indices on) benignFlows seeded flow keys.
func tableSpec(seed int64) runtime.TraceSpec {
	return runtime.TraceSpec{Flows: benignFlows, Packets: 1, Zipf: benignZipf, Seed: seed}
}

// genBodies sends a fresh benign generator spec per batch.
func genBodies(seed int64, t uint64) func(j int) []byte {
	return func(j int) []byte {
		return mustJSON(runtime.TraceSpec{
			Flows: benignFlows, Packets: batchPackets, Zipf: benignZipf,
			Seed: mix(seed, t, uint64(j)+1),
		})
	}
}

// tableHitBodies keeps the table's generator seed, so the first
// benignFlows flow keys are exactly the preloaded table, and varies the
// flow count in [benignFlows, benignFlows+64) per batch, which reshuffles
// the zipf stream while well over 99% of lookups still hit the table.
func tableHitBodies(seed int64, t uint64, table int64) func(j int) []byte {
	return func(j int) []byte {
		extra := int(uint64(mix(seed, t, uint64(j)+1)) % 64)
		return mustJSON(runtime.TraceSpec{
			Flows: benignFlows + extra, Packets: batchPackets, Zipf: benignZipf, Seed: table,
		})
	}
}

// rawBodies encodes rawPool raw-packet bodies over the table's flow
// keys with a seeded zipf draw per body, and cycles through them. The
// bodies live in anonymous memory outside the Go heap: a pool of
// megabytes on the heap would space out the collections of the daemon
// sharing this process, and flatter it.
func (w *workload) rawBodies(t uint64, table int64) (func(j int) []byte, error) {
	tr, err := tableSpec(table).Build()
	if err != nil {
		return nil, err
	}
	pool := make([][]byte, rawPool)
	raw := make([]string, batchPackets)
	size := 0
	for p := range pool {
		rng := rand.New(rand.NewSource(mix(w.seed, t, uint64(p)+1)))
		z := rand.NewZipf(rng, benignZipf, 1, benignFlows-1)
		var pkt pktgen.Packet
		for i := range raw {
			pkt = pktgen.Packet{}
			copy(pkt[:], tr.FlowKeys[z.Uint64()][:])
			raw[i] = base64.StdEncoding.EncodeToString(pkt[:nf.PktSize])
		}
		pool[p] = mustJSON(runtime.TraceSpec{Raw: raw})
		size += len(pool[p])
	}
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("raw body pool: %w", err)
	}
	w.offHeap = mem
	for p, b := range pool {
		pool[p] = mem[:len(b):len(b)]
		mem = mem[copy(mem, b):]
	}
	return func(j int) []byte { return pool[j%rawPool] }, nil
}

// close releases the workload's off-heap memory.
func (w *workload) close() error {
	if w.offHeap == nil {
		return nil
	}
	err := syscall.Munmap(w.offHeap)
	w.offHeap = nil
	return err
}

// probesFor returns estimator probes: seed-trace flow indices, plus the
// heaviest flows of the tenant's first batch by key.
func probesFor(first []byte) ([]string, error) {
	var out []string
	for k := 0; k < probeFlows; k++ {
		out = append(out, fmt.Sprintf("flow=%d", k))
	}
	var spec runtime.TraceSpec
	if err := json.Unmarshal(first, &spec); err != nil {
		return nil, err
	}
	tr, err := spec.Build()
	if err != nil {
		return nil, err
	}
	for k := 0; k < probeFlows && k < len(tr.FlowKeys); k++ {
		out = append(out, "key="+hex.EncodeToString(tr.FlowKeys[k][:]))
	}
	return out, nil
}

// newWorkload builds the named workload's tenants from seed.
func newWorkload(name string, seed int64) (*workload, error) {
	w := &workload{name: name, seed: seed}
	jit := runtime.Options{Tier: "jit"}
	switch name {
	case "raw-ingest":
		table := mix(seed, 0, 0)
		body, err := w.rawBodies(0, table)
		if err != nil {
			return nil, err
		}
		w.add(nfd.CreateRequest{Name: "cuckooswitch", Flavor: "ebpf", Options: jit, Trace: tableSpec(table)}, body)
	case "sketch-vm":
		w.add(nfd.CreateRequest{Name: "cmsketch", Flavor: "ebpf", Options: jit, Trace: tableSpec(mix(seed, 0, 0))},
			genBodies(seed, 0))
	case "table-mix":
		sharded := jit
		sharded.Shards = 2
		table := mix(seed, 0, 0)
		w.add(nfd.CreateRequest{Name: "cuckooswitch", Flavor: "enetstl", Options: sharded, Trace: tableSpec(table)},
			tableHitBodies(seed, 0, table))
		guarded := sharded
		guarded.Guard = &runtime.GuardOptions{Enabled: true}
		w.add(nfd.CreateRequest{Name: "conntrack", Flavor: "ebpf", Options: guarded, Trace: tableSpec(mix(seed, 1, 0))},
			func(j int) []byte {
				return mustJSON(runtime.TraceSpec{
					Flows: benignFlows, Packets: batchPackets, Zipf: benignZipf,
					Seed: mix(seed, 1, uint64(j)+1), Scenario: "churn",
				})
			})
	case "observed":
		o := jit
		o.Stats = true
		o.Trace = &runtime.TraceOptions{SampleRate: 0.01, Seed: uint64(mix(seed, 0, 0))}
		w.add(nfd.CreateRequest{Name: "cmsketch", Flavor: "ebpf", Options: o, Trace: tableSpec(mix(seed, 0, 0))},
			genBodies(seed, 0))
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	for _, t := range w.tenants {
		p, err := probesFor(t.body(0))
		if err != nil {
			w.close()
			return nil, err
		}
		t.probes = p
	}
	return w, nil
}

func (w *workload) add(req nfd.CreateRequest, body func(j int) []byte) {
	w.tenants = append(w.tenants, &tenant{req: req, body: body})
}

// batch returns the tenant index and body of global batch i.
func (w *workload) batch(i int) (int, []byte) {
	n := len(w.tenants)
	return i % n, w.tenants[i%n].body(i / n)
}
