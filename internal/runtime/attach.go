package runtime

import (
	"time"

	"enetstl/internal/ebpf/vm"
	"enetstl/internal/nf"
	"enetstl/internal/trace"
)

// VMs collects the machines backing an instance; see nf.VMs.
func VMs(inst nf.Instance) []*vm.VM { return nf.VMs(inst) }

// AttachStats attaches one shared Stats to every VM backing inst and
// returns it — per-instance metering with no global registry, so a
// long-lived daemon collecting per-module stats retains nothing after
// the module is deleted. For instances with no VMs (Kernel-flavour
// natives) it returns a fresh Stats the caller can feed through
// Metered.
func AttachStats(inst nf.Instance) *vm.Stats {
	st := vm.NewStats()
	for _, m := range nf.VMs(inst) {
		m.SetStats(st)
	}
	return st
}

// AttachRecorder attaches (or with nil detaches) a flight recorder on
// every VM backing inst.
func AttachRecorder(inst nf.Instance, r *trace.Recorder) {
	for _, m := range nf.VMs(inst) {
		m.SetRecorder(r)
	}
}

// Metered wraps a native (non-VM) instance so run_cnt/run_time_ns
// metering covers every flavour; VM-backed instances are metered by
// their machines and don't need it. It delegates VM()/Stages() so
// downstream attachment sees through it.
type Metered struct {
	nf.Instance
	st *vm.Stats
}

// Meter wraps inst with wall-clock run accounting into st.
func Meter(inst nf.Instance, st *vm.Stats) *Metered {
	return &Metered{Instance: inst, st: st}
}

// Process times the inner instance's handling of one packet.
func (m *Metered) Process(pkt []byte) (uint64, error) {
	start := time.Now()
	ret, err := m.Instance.Process(pkt)
	m.st.RecordRun(m.Instance.Name(), time.Since(start))
	return ret, err
}

// VM delegates to the inner instance.
func (m *Metered) VM() *vm.VM {
	if v, ok := m.Instance.(interface{ VM() *vm.VM }); ok {
		return v.VM()
	}
	return nil
}

// Stages delegates to the inner instance.
func (m *Metered) Stages() []nf.Instance {
	if s, ok := m.Instance.(interface{ Stages() []nf.Instance }); ok {
		return s.Stages()
	}
	return nil
}
