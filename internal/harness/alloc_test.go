package harness_test

import (
	"testing"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
)

// TestReplayBatchAllocs pins the replay engine's cost in allocations:
// a whole batch allocates only its serialized verdict map, nothing per
// packet, on both fast tiers.
func TestReplayBatchAllocs(t *testing.T) {
	for _, tier := range []vm.Tier{vm.TierPredecoded, vm.TierJIT} {
		tr := pktgen.Generate(pktgen.Config{Flows: 256, Packets: 4096, ZipfS: 1.1, Seed: 21})
		inst, err := nfcatalog.Build("cmsketch", nf.EBPF, tr)
		if err != nil {
			t.Fatal(err)
		}
		inst.(*nf.VMInstance).Machine.SetTier(tier)
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := harness.ReplayBatch(inst, tr, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("tier %v: %.1f allocs per 4096-packet batch, want <= 2", tier, allocs)
		}
	}
}
