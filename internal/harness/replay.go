// The replay engine. Every per-packet loop in the tree runs through
// replay — the userspace analogue of the kernel's single program
// dispatch point — which owns how a packet is dispatched (arrival-
// clocked through a guard, or plain Process) and what a native
// handler's panic becomes. Callers see one outcome per packet and
// decide whether the replay goes on.

package harness

import (
	"errors"
	"fmt"

	"enetstl/internal/guard"
	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
)

// ErrPanic marks a packet whose native-flavour handler panicked. The
// replay engine recovers the panic into a per-packet error wrapping
// ErrPanic; VM flavours already recover into vm.ErrRuntimeFault.
var ErrPanic = errors.New("harness: NF panicked")

// outcome is one packet's result: its verdict, what an arrival-clocked
// ingress did with it (ActionAdmit for every other instance), and any
// processing error.
type outcome struct {
	verdict uint64
	act     guard.Action
	err     error
}

// arrivalClocked is the guard-fronted ingress: packets carry a virtual
// arrival tick and the guard reports its action. It is matched as an
// interface, not as *guard.Guarded, so wrappers that embed a guard and
// override ProcessAt are driven through their override.
type arrivalClocked interface {
	ProcessAt(pkt []byte, tick uint64) (uint64, guard.Action, error)
}

// replay dispatches every packet of tr through inst once, in order, and
// hands each outcome to each; a non-nil error from each stops the
// replay and is returned. Arrival-clocked instances see packet i at
// tick tickBase+tr.ArrivalOf(i). nextTick is one past the last
// dispatched packet's tick: a guard's clock must be monotone for the
// life of the instance, so a caller replaying through the same
// instance again passes nextTick as the next tickBase.
func replay(inst nf.Instance, tr *pktgen.Trace, tickBase uint64, each func(i int, o outcome) error) (nextTick uint64, err error) {
	gp, _ := inst.(arrivalClocked)
	nextTick = tickBase
	for i := range tr.Packets {
		tick := tickBase + tr.ArrivalOf(i)
		nextTick = tick + 1
		if err = each(i, dispatch(inst, gp, tr.Packets[i][:], tick)); err != nil {
			return nextTick, err
		}
	}
	return nextTick, nil
}

// dispatch runs one packet, converting a handler panic into an outcome
// error so one faulty native NF cannot take down the process replaying
// it.
func dispatch(inst nf.Instance, gp arrivalClocked, pkt []byte, tick uint64) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o = outcome{err: fmt.Errorf("%w: %v", ErrPanic, r)}
		}
	}()
	if gp != nil {
		o.verdict, o.act, o.err = gp.ProcessAt(pkt, tick)
	} else {
		o.verdict, o.err = inst.Process(pkt)
	}
	return o
}

// replayAll is the stop-on-first-error pass the measuring entry points
// share: it tallies verdicts into tally when non-nil and names the NF
// and packet in the error.
func replayAll(inst nf.Instance, tr *pktgen.Trace, tickBase uint64, tally *VerdictCounts) (uint64, error) {
	return replay(inst, tr, tickBase, func(i int, o outcome) error {
		if o.err != nil {
			return fmt.Errorf("%s/%s: packet %d: %w", inst.Name(), inst.Flavor(), i, o.err)
		}
		if tally != nil {
			tally.Count(o.verdict)
		}
		return nil
	})
}

// Verdicts replays trace through inst once and returns the verdict of
// every packet in order. Any processing error aborts the replay: the
// differential harness treats errors as divergences in their own right
// and compares error positions, so the packet index is reported.
func Verdicts(inst nf.Instance, trace *pktgen.Trace) ([]uint64, error) {
	out := make([]uint64, len(trace.Packets))
	n := 0
	_, err := replay(inst, trace, 0, func(i int, o outcome) error {
		if o.err != nil {
			return fmt.Errorf("packet %d: %w", i, o.err)
		}
		out[i] = o.verdict
		n = i + 1
		return nil
	})
	return out[:n], err
}
