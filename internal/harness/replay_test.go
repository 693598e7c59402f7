package harness

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"enetstl/internal/guard"
	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
)

// panicNF is a native instance whose handler panics on its at-th call.
type panicNF struct{ at, calls int }

func (p *panicNF) Name() string      { return "panicky" }
func (p *panicNF) Flavor() nf.Flavor { return nf.Kernel }
func (p *panicNF) Process(pkt []byte) (uint64, error) {
	p.calls++
	if p.calls == p.at {
		panic("boom")
	}
	return 2, nil
}

// TestPanicBecomesErrPanic: a native handler's panic surfaces from the
// stop-on-error entry points as an error wrapping ErrPanic instead of
// crashing the process.
func TestPanicBecomesErrPanic(t *testing.T) {
	tr := pktgen.Generate(pktgen.Config{Flows: 4, Packets: 50, Seed: 1})
	if _, err := Throughput(&panicNF{at: 5}, tr, 1); !errors.Is(err, ErrPanic) {
		t.Errorf("Throughput: err %v, want ErrPanic", err)
	}
	out, err := Verdicts(&panicNF{at: 5}, tr)
	if !errors.Is(err, ErrPanic) || len(out) != 4 {
		t.Errorf("Verdicts: %d verdicts, err %v; want 4 and ErrPanic", len(out), err)
	}
	if _, _, err := ReplayBatch(&panicNF{at: 5}, tr, 0); !errors.Is(err, ErrPanic) {
		t.Errorf("ReplayBatch: err %v, want ErrPanic", err)
	}
}

// TestGridsRecordPanics: Chaos and Attack keep replaying past a
// panicking packet and record it as a "panic" violation.
func TestGridsRecordPanics(t *testing.T) {
	tr := pktgen.GenerateAttack(pktgen.AttackConfig{
		Base: pktgen.Config{Flows: 16, Packets: 60, Seed: 2},
		Kind: pktgen.ScenarioSYNFlood,
	})
	n := len(tr.Packets)

	cr := Chaos([]ChaosCase{{Name: "panicky", Inst: &panicNF{at: 7}, Trace: tr}},
		ChaosSchedules()[:1], 1)
	if cr.Packets != n || cr.ViolationsTotal != 1 ||
		cr.Violations[0].Kind != "panic" || cr.Violations[0].Packet != 6 {
		t.Errorf("chaos: %s", cr)
	}

	ar := Attack([]AttackCase{{Name: "panicky", Scenario: "syn-flood", Trace: tr,
		Build: func(bool) (AttackArm, error) { return AttackArm{Inst: &panicNF{at: 7}}, nil }}})
	if ar.Packets != 2*n || ar.ViolationsTotal != 2 {
		t.Fatalf("attack: %s", ar)
	}
	for _, v := range ar.Violations {
		if v.Kind != "panic" || v.Packet != 6 {
			t.Errorf("attack violation %s, want a panic at packet 6", v)
		}
	}
}

// spyGuard embeds a guard and overrides ProcessAt, recording the ticks
// it is driven at.
type spyGuard struct {
	*guard.Guarded
	ticks []uint64
}

func (s *spyGuard) ProcessAt(pkt []byte, tick uint64) (uint64, guard.Action, error) {
	s.ticks = append(s.ticks, tick)
	return s.Guarded.ProcessAt(pkt, tick)
}

func newSpy() *spyGuard {
	inner := &nf.NativeInstance{NFName: "fake", Fn: func([]byte) uint64 { return 2 }}
	return &spyGuard{Guarded: guard.New("fake", 0, guard.Config{Enabled: true}).Wrap(inner)}
}

// TestArrivalClockedOverride: dispatch matches arrival-clocked ingress
// by interface, so a wrapper's ProcessAt override is what runs, at the
// trace's arrival ticks offset by the batch's tick base.
func TestArrivalClockedOverride(t *testing.T) {
	tr := pktgen.GenerateAttack(pktgen.AttackConfig{
		Base: pktgen.Config{Flows: 16, Packets: 200, Seed: 3},
		Kind: pktgen.ScenarioSYNFlood,
	})
	n := len(tr.Packets)

	spy := newSpy()
	const base = 1000
	_, next, err := ReplayBatch(spy, tr, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(spy.ticks) != n {
		t.Fatalf("ReplayBatch: override called %d times, want %d", len(spy.ticks), n)
	}
	for i, tick := range spy.ticks {
		if tick != base+tr.ArrivalOf(i) {
			t.Fatalf("packet %d at tick %d, want %d", i, tick, base+tr.ArrivalOf(i))
		}
	}
	if want := base + tr.ArrivalOf(n-1) + 1; next != want {
		t.Fatalf("nextTick %d, want %d", next, want)
	}

	spy = newSpy()
	Attack([]AttackCase{{Name: "spy", Scenario: "syn-flood", Trace: tr,
		Build: func(bool) (AttackArm, error) { return AttackArm{Inst: spy}, nil }}})
	if len(spy.ticks) != 2*n {
		t.Fatalf("Attack: override called %d times, want %d", len(spy.ticks), 2*n)
	}
}

// TestReplayShards: a sharded batch equals one serial ReplayBatch per
// shard — the same ticks at every packet, the same advanced tick bases,
// the summed tallies — and a failing shard neither stops the others nor
// hides behind a higher one.
func TestReplayShards(t *testing.T) {
	tr := pktgen.GenerateAttack(pktgen.AttackConfig{
		Base: pktgen.Config{Flows: 32, Packets: 300, Seed: 4},
		Kind: pktgen.ScenarioSYNFlood,
	})
	for _, n := range []int{1, 3} {
		subs := tr.Shard(n)
		insts := make([]nf.Instance, n)
		spies, serial := make([]*spyGuard, n), make([]*spyGuard, n)
		ticks, serialTicks := make([]uint64, n), make([]uint64, n)
		var want BatchResult
		for s := range subs {
			spies[s], serial[s] = newSpy(), newSpy()
			insts[s] = spies[s]
			ticks[s] = uint64(1000 * (s + 1))
			res, next, err := ReplayBatch(serial[s], subs[s], ticks[s])
			if err != nil {
				t.Fatal(err)
			}
			serialTicks[s] = next
			want.Packets += res.Packets
			want.Shed += res.Shed
			want.Sampled += res.Sampled
			want.Verdicts.Add(res.Verdicts)
		}
		res, err := ReplayShards(insts, subs, ticks)
		if err != nil {
			t.Fatal(err)
		}
		if res.Packets != want.Packets || res.Shed != want.Shed || res.Sampled != want.Sampled ||
			res.Verdicts != want.Verdicts || !reflect.DeepEqual(res.VerdictMap, want.Verdicts.Map()) {
			t.Fatalf("%d shards: merged %+v, serial %+v", n, res, want)
		}
		if !reflect.DeepEqual(ticks, serialTicks) {
			t.Fatalf("%d shards: next ticks %v, serial %v", n, ticks, serialTicks)
		}
		for s := range subs {
			if !reflect.DeepEqual(spies[s].ticks, serial[s].ticks) {
				t.Fatalf("%d shards: shard %d driven at other ticks than serially", n, s)
			}
		}
	}

	subs := tr.Shard(3)
	insts := []nf.Instance{&panicNF{}, &panicNF{at: 5}, &panicNF{at: 2}}
	res, err := ReplayShards(insts, subs, make([]uint64, 3))
	if !errors.Is(err, ErrPanic) || !strings.HasPrefix(err.Error(), "shard 1: ") {
		t.Fatalf("err %v, want shard 1's ErrPanic", err)
	}
	if want := uint64(len(subs[0].Packets) + 4 + 1); res.Verdicts.Pass != want {
		t.Fatalf("tallied %d passes, want %d: every packet before each shard's failure", res.Verdicts.Pass, want)
	}
}
