package nfd

import "enetstl/internal/nf"

// ShardState exposes a module's per-shard ingress instances and a copy
// of its per-shard guard tick bases to the external tests.
func (m *Module) ShardState() ([]nf.Instance, []uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.insts, append([]uint64(nil), m.tickBase...)
}
