// Package nf defines the common scaffolding for the evaluated network
// functions: the three implementation flavours (Kernel = native Go,
// EBPF = verified bytecode on the simulated VM using only maps and
// helpers, ENetSTL = verified bytecode calling eNetSTL kfuncs), the
// shared synthetic packet layout, and the Instance interface the
// benchmark harness drives.
package nf

import (
	"fmt"
	"strings"

	"enetstl/internal/ebpf/vm"
)

// Flavor selects which implementation of an NF to build.
type Flavor int

// The three flavours evaluated throughout the paper.
const (
	Kernel Flavor = iota
	EBPF
	ENetSTL
)

func (f Flavor) String() string {
	switch f {
	case Kernel:
		return "Kernel"
	case EBPF:
		return "eBPF"
	case ENetSTL:
		return "eNetSTL"
	}
	return fmt.Sprintf("flavor(%d)", int(f))
}

// ParseFlavor parses the case-insensitive flavour names the CLIs and
// the daemon accept (kernel | ebpf | enetstl).
func ParseFlavor(s string) (Flavor, error) {
	switch strings.ToLower(s) {
	case "kernel":
		return Kernel, nil
	case "ebpf":
		return EBPF, nil
	case "enetstl":
		return ENetSTL, nil
	}
	return 0, fmt.Errorf("unknown flavor %q (kernel|ebpf|enetstl)", s)
}

// Synthetic packet layout. Every trace packet is PktSize bytes; the
// first KeyLen bytes are the flow key (13 bytes of 5-tuple, zero
// padded), followed by NF-specific fields.
const (
	PktSize = 64

	OffKey = 0
	KeyLen = 16 // 5-tuple (13B) zero-padded to a word multiple

	// OffOp selects the operation for NFs with an op mix (u32):
	// the meaning is per-NF (lookup/update/delete, enqueue/dequeue...).
	OffOp = 16
	// OffArg is a u32 argument (priority, index...).
	OffArg = 20
	// OffTS is a u64 argument (timestamps, deadlines).
	OffTS = 24
	// OffValue starts a 32-byte payload area.
	OffValue = 32
)

// Op codes used by NFs with operation mixes.
const (
	OpLookup  = 0
	OpUpdate  = 1
	OpDelete  = 2
	OpEnqueue = 0
	OpDequeue = 1
)

// Instance is one runnable NF flavour. Process handles one packet and
// returns its verdict (an XDP code for datapath NFs).
type Instance interface {
	Name() string
	Flavor() Flavor
	Process(pkt []byte) (uint64, error)
}

// VMInstance wraps a verified program loaded into a VM.
type VMInstance struct {
	name    string
	flavor  Flavor
	Machine *vm.VM
	Prog    *vm.Program
}

// NewVMInstance builds an Instance around a loaded program.
func NewVMInstance(name string, flavor Flavor, machine *vm.VM, prog *vm.Program) *VMInstance {
	return &VMInstance{name: name, flavor: flavor, Machine: machine, Prog: prog}
}

// Name returns the NF name.
func (v *VMInstance) Name() string { return v.name }

// VM exposes the backing machine so harnesses (chaos, stats) can
// instrument it. Promoted through NFs that embed an Instance.
func (v *VMInstance) VM() *vm.VM { return v.Machine }

// Flavor returns the implementation flavour.
func (v *VMInstance) Flavor() Flavor { return v.flavor }

// Process runs the program over one packet.
func (v *VMInstance) Process(pkt []byte) (uint64, error) {
	return v.Machine.Run(v.Prog, pkt)
}

// NativeInstance adapts a plain Go handler (the Kernel flavour).
type NativeInstance struct {
	NFName string
	Fn     func(pkt []byte) uint64
}

// Name returns the NF name.
func (n *NativeInstance) Name() string { return n.NFName }

// Flavor returns Kernel.
func (n *NativeInstance) Flavor() Flavor { return Kernel }

// Process handles one packet natively.
func (n *NativeInstance) Process(pkt []byte) (uint64, error) {
	return n.Fn(pkt), nil
}

// VMs collects the machines backing an instance: its own and, for
// pipelines, every stage's. Wrappers (guards, meters, instrumentation)
// delegate VM()/Stages(), so every attacher — stats, flight recorders,
// guards, the chaos plane, the daemon — walks instances the same way.
func VMs(inst Instance) []*vm.VM {
	type vmBacked interface{ VM() *vm.VM }
	var out []*vm.VM
	add := func(i Instance) {
		if v, ok := i.(vmBacked); ok && v.VM() != nil {
			out = append(out, v.VM())
		}
	}
	add(inst)
	if s, ok := inst.(interface{ Stages() []Instance }); ok {
		for _, st := range s.Stages() {
			add(st)
		}
	}
	return out
}
