package pktgen

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"enetstl/internal/nf"
)

// shardByAppend is the straightforward partition Shard must reproduce:
// every sub-trace grown by append from nil, packet by packet.
func shardByAppend(t *Trace, n int) []*Trace {
	shards := make([]*Trace, n)
	for s := range shards {
		shards[s] = &Trace{
			FlowKeys: append([][nf.KeyLen]byte(nil), t.FlowKeys...),
			Windows:  append([]Window(nil), t.Windows...),
			Scenario: t.Scenario,
		}
	}
	for i := range t.Packets {
		s := shards[ShardOf(t.Packets[i].Key(), n)]
		s.Packets = append(s.Packets, t.Packets[i])
		if t.FlowOf != nil {
			s.FlowOf = append(s.FlowOf, t.FlowOf[i])
		}
		if t.Labels != nil {
			s.Labels = append(s.Labels, t.Labels[i])
		}
		if t.Arrival != nil {
			s.Arrival = append(s.Arrival, t.Arrival[i])
		}
	}
	return shards
}

// TestShardMatchesAppendPartition pins Shard's output to the
// append-grown partition field for field — same packets in the same
// order, same per-shard arrival ticks, same nil-ness — over benign,
// raw, attack and empty traces, including shard counts that leave
// shards empty.
func TestShardMatchesAppendPartition(t *testing.T) {
	gen := Generate(Config{Flows: 64, Packets: 3000, ZipfS: 1.1, Seed: 21})
	traces := map[string]*Trace{
		"benign": gen,
		"raw":    {Packets: gen.Packets},
		"empty":  {},
		"tiny":   Generate(Config{Flows: 2, Packets: 3, Seed: 4}),
	}
	for _, kind := range Scenarios() {
		traces[kind.String()] = GenerateAttack(attackCfg(kind))
	}
	for name, tr := range traces {
		for _, n := range []int{2, 3, 4, 7, MaxShards} {
			got, want := tr.Shard(n), shardByAppend(tr, n)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Shard(%d) differs from the append-grown partition", name, n)
			}
		}
	}
}

// TestShardIndependentCopies checks the deep-copy contract: appending
// to one shard never writes into its neighbour, and writes to a shard
// never reach the source trace.
func TestShardIndependentCopies(t *testing.T) {
	tr := Generate(Config{Flows: 32, Packets: 400, Seed: 5})
	before := tr.Clone()
	subs := tr.Shard(2)
	next := subs[1].Packets[0]
	subs[0].Packets = append(subs[0].Packets, Packet{0xff})
	subs[0].FlowKeys[0][0] ^= 0xff
	subs[0].Packets[0][0] ^= 0xff
	if subs[1].Packets[0] != next {
		t.Fatal("append to shard 0 overwrote shard 1")
	}
	if !reflect.DeepEqual(tr, before) {
		t.Fatal("writes to a shard reached the source trace")
	}
}

// TestShardAllocs pins Shard's cost on a 4096-packet, 2-shard trace:
// a fixed number of allocations however many packets there are (the
// append-grown partition makes O(log packets) of them), and at most
// 1.25x the bytes of the sub-traces it returns.
func TestShardAllocs(t *testing.T) {
	const n = 2
	tr := Generate(Config{Flows: 256, Packets: 4096, ZipfS: 1.1, Seed: 1})
	allocs := testing.AllocsPerRun(20, func() { tr.Shard(n) })
	if allocs > 11 {
		t.Fatalf("Shard(%d) of 4096 packets: %.0f allocs/op, want <= 11", n, allocs)
	}
	big := Generate(Config{Flows: 256, Packets: 65536, ZipfS: 1.1, Seed: 1})
	if bigAllocs := testing.AllocsPerRun(5, func() { big.Shard(n) }); bigAllocs != allocs {
		t.Fatalf("Shard allocs grow with the trace: %.0f at 4096 packets, %.0f at 65536", allocs, bigAllocs)
	}

	var out uintptr
	for _, sub := range tr.Shard(n) {
		out += unsafe.Sizeof(*sub) +
			uintptr(len(sub.Packets))*unsafe.Sizeof(Packet{}) +
			uintptr(len(sub.FlowKeys))*nf.KeyLen +
			uintptr(len(sub.FlowOf))*unsafe.Sizeof(int32(0))
	}
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		tr.Shard(n)
	}
	runtime.ReadMemStats(&m1)
	perOp := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	if limit := 1.25 * float64(out); perOp > limit {
		t.Fatalf("Shard(%d) of 4096 packets allocates %.0f B/op, want <= %.0f (1.25x its %d-byte output)", n, perOp, limit, out)
	}
}

func TestShardPanicsPastMaxShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Shard(MaxShards+1) did not panic")
		}
	}()
	Generate(Config{Flows: 4, Packets: 10, Seed: 1}).Shard(MaxShards + 1)
}
