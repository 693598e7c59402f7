// Package pktgen generates the synthetic traffic the benchmark harness
// replays: 64-byte packets with 5-tuple flow keys, configurable flow
// popularity (uniform or zipf), and per-NF operation mixes. It stands in
// for the paper's pktgen-DPDK sender (the substitution is documented in
// DESIGN.md): single-core NF throughput is CPU-bound, so replaying an
// in-memory trace exercises the same per-packet work.
package pktgen

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"enetstl/internal/nf"
	"enetstl/internal/trace"
)

// Packet is one synthetic 64-byte packet.
type Packet [nf.PktSize]byte

// Config controls trace generation.
type Config struct {
	// Flows is the number of distinct flows (5-tuples).
	Flows int
	// Packets is the trace length.
	Packets int
	// ZipfS > 0 selects a zipf flow popularity with that skew
	// (typical heavy-tailed traffic uses 1.0-1.3); 0 means uniform.
	ZipfS float64
	// Seed makes the trace deterministic.
	Seed int64
}

// Trace is a generated packet sequence plus its flow table. Attack
// scenarios (GenerateAttack) additionally carry ground-truth metadata:
// per-packet labels and arrival ticks, plus the window list. Benign
// traces leave those fields nil; consumers treat nil Arrival as one
// tick per packet.
type Trace struct {
	Packets []Packet
	// FlowKeys holds the KeyLen-byte key of each flow.
	FlowKeys [][nf.KeyLen]byte
	// FlowOf maps each packet index to its flow index.
	FlowOf []int32

	// Labels marks each packet 0 = benign, 1 = attack (ground truth for
	// scenario traces; nil for benign traces). Parallel to Packets.
	Labels []uint8
	// Arrival is each packet's virtual arrival tick: a monotone
	// non-decreasing clock where one tick is one benign inter-arrival
	// gap. Attack bursts put several packets on the same tick, which is
	// how the overload guard's token bucket sees a rate spike without
	// any wall-clock dependence. Nil means packet i arrives at tick i.
	Arrival []uint64
	// Windows lists the attack windows in arrival-tick terms. Ticks
	// travel with packets through Shard, so window membership is
	// shard-count-invariant (packet-index ranges would not be).
	Windows []Window
	// Scenario names the generator that produced the trace ("" benign).
	Scenario string
}

// Window is one attack window: the arrival-tick range [Start, End).
type Window struct {
	Start, End uint64
}

// Contains reports whether tick falls inside the window.
func (w Window) Contains(tick uint64) bool { return tick >= w.Start && tick < w.End }

// ArrivalOf returns packet i's arrival tick (i itself for benign
// traces, which carry no explicit arrival clock).
func (t *Trace) ArrivalOf(i int) uint64 {
	if t.Arrival == nil {
		return uint64(i)
	}
	return t.Arrival[i]
}

// InWindow reports whether tick falls inside any attack window.
func (t *Trace) InWindow(tick uint64) bool {
	for _, w := range t.Windows {
		if w.Contains(tick) {
			return true
		}
	}
	return false
}

// AttackPackets counts labeled attack packets.
func (t *Trace) AttackPackets() int {
	n := 0
	for _, l := range t.Labels {
		if l != 0 {
			n++
		}
	}
	return n
}

// flowKey synthesizes a deterministic 5-tuple for flow i: distinct
// addresses/ports, proto TCP, zero padding to KeyLen.
func flowKey(i int, rng *rand.Rand) [nf.KeyLen]byte {
	var k [nf.KeyLen]byte
	binary.LittleEndian.PutUint32(k[0:], 0x0a000000|uint32(i))           // src IP 10.x
	binary.LittleEndian.PutUint32(k[4:], 0xac100000|uint32(rng.Int31())) // dst IP
	binary.LittleEndian.PutUint16(k[8:], uint16(1024+i%60000))           // src port
	binary.LittleEndian.PutUint16(k[10:], 443)                           // dst port
	k[12] = 6                                                            // TCP
	return k
}

// Generate builds a trace.
func Generate(cfg Config) *Trace {
	if cfg.Flows <= 0 {
		cfg.Flows = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Trace{
		Packets:  make([]Packet, cfg.Packets),
		FlowKeys: make([][nf.KeyLen]byte, cfg.Flows),
		FlowOf:   make([]int32, cfg.Packets),
	}
	for i := range t.FlowKeys {
		t.FlowKeys[i] = flowKey(i, rng)
	}
	var z *rand.Zipf
	if cfg.ZipfS > 0 {
		z = rand.NewZipf(rng, math.Max(cfg.ZipfS, 1.001), 1, uint64(cfg.Flows-1))
	}
	for i := range t.Packets {
		var f int
		if z != nil {
			f = int(z.Uint64())
		} else {
			f = rng.Intn(cfg.Flows)
		}
		t.FlowOf[i] = int32(f)
		copy(t.Packets[i][:], t.FlowKeys[f][:])
	}
	return t
}

// FlowHash hashes a flow key as NIC RSS hashes the 5-tuple: FNV-1a
// over the key bytes with a murmur-style avalanche finisher so the low
// bits (which shard selection reduces mod N) mix the whole tuple. It
// is the single flow-keying function in the tree — the RSS sharder
// partitions traces with it and the op-mix helpers derive per-flow
// arguments from it.
func FlowHash(key []byte) uint32 {
	// The implementation lives in internal/trace so the VM (which cannot
	// import pktgen) computes identical flow hashes: /trace flow filters,
	// RSS sharding, and op-mix argument keying all agree on one function.
	return trace.FlowHash(key)
}

// ShardOf maps a flow key to one of n RSS shards.
func ShardOf(key []byte, n int) int {
	if n <= 1 {
		return 0
	}
	return int(FlowHash(key) % uint32(n))
}

// MaxShards is the most sub-traces Shard partitions into. It bounds the
// RSS queue count everywhere the tree shards (runtime.MaxShards), and
// lets Shard tag each packet's shard id in a single byte.
const MaxShards = 64

// Shard hash-partitions the trace into n sub-traces by flow 5-tuple,
// as NIC RSS spreads flows across receive queues: all packets of one
// flow land in the same shard, in their original relative order, and
// the flow→shard assignment depends only on the flow key. Each
// sub-trace keeps the full flow table (FlowKeys, which FlowOf indexes)
// so per-shard NF construction preloads identical tables regardless of
// shard count — the per-CPU replica model. Packets are deep-copied;
// shards are safe to mutate independently. n must be at most
// MaxShards.
//
// One pass tags every packet with its shard and counts each shard's
// packets; each per-packet field is then copied once into a backing
// array of exactly the trace's length, carved into per-shard slices at
// their exact sizes, so no sub-trace ever regrows.
func (t *Trace) Shard(n int) []*Trace {
	if n <= 1 {
		return []*Trace{t.Clone()}
	}
	if n > MaxShards {
		panic(fmt.Sprintf("pktgen: %d shards exceeds MaxShards (%d)", n, MaxShards))
	}
	ids := make([]uint8, len(t.Packets))
	var counts [MaxShards]int
	for i := range t.Packets {
		s := ShardOf(t.Packets[i].Key(), n)
		ids[i] = uint8(s)
		counts[s]++
	}

	packets, flowOf, labels, arrival := alike(t.Packets), alike(t.FlowOf), alike(t.Labels), alike(t.Arrival)
	keys := make([][nf.KeyLen]byte, n*len(t.FlowKeys))
	subs := make([]Trace, n)
	out := make([]*Trace, n)
	off := 0
	for s := range subs {
		c := counts[s]
		sub := &subs[s]
		*sub = Trace{
			Packets:  carve(packets, off, c),
			FlowKeys: carve(keys, s*len(t.FlowKeys), len(t.FlowKeys)),
			FlowOf:   carve(flowOf, off, c),
			Labels:   carve(labels, off, c),
			Arrival:  carve(arrival, off, c),
			Windows:  append([]Window(nil), t.Windows...),
			Scenario: t.Scenario,
		}
		sub.FlowKeys = append(sub.FlowKeys, t.FlowKeys...)
		out[s] = sub
		off += c
	}
	for i, s := range ids {
		sub := &subs[s]
		sub.Packets = append(sub.Packets, t.Packets[i])
		if flowOf != nil {
			sub.FlowOf = append(sub.FlowOf, t.FlowOf[i])
		}
		if labels != nil {
			sub.Labels = append(sub.Labels, t.Labels[i])
		}
		if arrival != nil {
			sub.Arrival = append(sub.Arrival, t.Arrival[i])
		}
	}
	return out
}

// alike allocates a zeroed backing array as long as src; nil for nil.
func alike[T any](src []T) []T {
	if src == nil {
		return nil
	}
	return make([]T, len(src))
}

// carve returns buf[off:off+n] emptied for appending, its capacity
// capped at n so appends never cross into the next shard's region; nil
// when there is nothing to carve, as appending from nil would leave it.
func carve[T any](buf []T, off, n int) []T {
	if buf == nil || n == 0 {
		return nil
	}
	return buf[off : off : off+n]
}

// Clone deep-copies the trace. Differential replay needs bit-identical
// input streams per flavour, and op-mix application mutates packets in
// place, so each instance under comparison replays its own clone.
func (t *Trace) Clone() *Trace {
	c := &Trace{
		Packets:  make([]Packet, len(t.Packets)),
		FlowKeys: make([][nf.KeyLen]byte, len(t.FlowKeys)),
		FlowOf:   make([]int32, len(t.FlowOf)),
		Scenario: t.Scenario,
	}
	copy(c.Packets, t.Packets)
	copy(c.FlowKeys, t.FlowKeys)
	copy(c.FlowOf, t.FlowOf)
	if t.Labels != nil {
		c.Labels = append([]uint8(nil), t.Labels...)
	}
	if t.Arrival != nil {
		c.Arrival = append([]uint64(nil), t.Arrival...)
	}
	if t.Windows != nil {
		c.Windows = append([]Window(nil), t.Windows...)
	}
	return c
}

// SetOp writes the operation selector of packet p.
func (p *Packet) SetOp(op uint32) {
	binary.LittleEndian.PutUint32(p[nf.OffOp:], op)
}

// SetArg writes the u32 argument field.
func (p *Packet) SetArg(a uint32) {
	binary.LittleEndian.PutUint32(p[nf.OffArg:], a)
}

// SetTS writes the u64 timestamp/deadline field.
func (p *Packet) SetTS(ts uint64) {
	binary.LittleEndian.PutUint64(p[nf.OffTS:], ts)
}

// Key returns the packet's flow key bytes.
func (p *Packet) Key() []byte { return p[nf.OffKey : nf.OffKey+nf.KeyLen] }

// ApplyOpMix assigns operation codes round-robin-weighted by ratios
// (e.g. {1,1} alternates two ops), deterministically.
func (t *Trace) ApplyOpMix(ops []uint32, weights []int) {
	if len(ops) != len(weights) || len(ops) == 0 {
		panic("pktgen: ops and weights must align")
	}
	var pattern []uint32
	for i, op := range ops {
		for j := 0; j < weights[i]; j++ {
			pattern = append(pattern, op)
		}
	}
	for i := range t.Packets {
		t.Packets[i].SetOp(pattern[i%len(pattern)])
	}
}

// Queueize turns the trace into the scheduler NFs' enqueue/dequeue
// mix: ops alternate 1:1, every argument (priority) is the packet's
// flow hash, and packet i's timestamp (deadline) is i/2, so each
// enqueue/dequeue pair shares one tick.
func (t *Trace) Queueize() {
	t.ApplyOpMix([]uint32{nf.OpEnqueue, nf.OpDequeue}, []int{1, 1})
	t.ApplyArgKeys(0)
	for i := range t.Packets {
		t.Packets[i].SetTS(uint64(i / 2))
	}
}

// ApplyArgKeys derives every packet's u32 argument (priority, index...)
// from its flow key via FlowHash, reduced mod bound when bound > 0.
// Flow-derived args are stable under resharding: a packet carries the
// same argument whether the trace is replayed whole or hash-partitioned
// across shards, which per-index keying cannot guarantee.
func (t *Trace) ApplyArgKeys(bound uint32) {
	for i := range t.Packets {
		a := FlowHash(t.Packets[i].Key())
		if bound > 0 {
			a %= bound
		}
		t.Packets[i].SetArg(a)
	}
}
