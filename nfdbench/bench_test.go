package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// declared reads the metric lists BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func short(workload string, seed int64, trace int, t *testing.T) options {
	return options{
		workload: workload, seed: seed, seconds: 0.2, trace: trace,
		out: t.TempDir(), commit: "test", minBatches: 16, setupCycles: 2,
	}
}

// TestSmoke runs every workload briefly in both modes: every declared
// metric is emitted with its unit, nothing else is, and the output
// check passes with no failed batch.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloadNames {
		for trace, want := range []map[string]string{endToEnd, perLayer} {
			res, err := run(short(w, 7, trace, t))
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%d: metrics %v, declared %v", w, trace, got, want)
			}
		}
	}
}

// TestAdmitFracDeterministic: the guard's shed set depends on the seed
// alone, so two runs of one seed report the same admit_frac exactly.
func TestAdmitFracDeterministic(t *testing.T) {
	var got []float64
	for i := 0; i < 2; i++ {
		o := short("table-mix", 3, 0, t)
		o.seconds, o.minBatches = 0, admitPrefix
		res, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.Metrics["admit_frac"].Value)
	}
	if got[0] != got[1] || got[0] >= 1 {
		t.Fatalf("admit_frac over two same-seed runs: %v, want equal and below 1", got)
	}
}

// TestSeedThreaded: the same seed regenerates the same batches and a
// different seed changes them, for every tenant of every workload.
func TestSeedThreaded(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := newWorkload(name, 1)
		b, _ := newWorkload(name, 2)
		defer a.close()
		defer again.close()
		defer b.close()
		for i := 0; i < 4*len(a.tenants); i++ {
			_, ba := a.batch(i)
			_, bb := b.batch(i)
			_, bagain := again.batch(i)
			if !bytes.Equal(ba, bagain) {
				t.Errorf("%s batch %d differs between two builds of seed 1", name, i)
			}
			if bytes.Equal(ba, bb) {
				t.Errorf("%s batch %d is the same under seeds 1 and 2", name, i)
			}
		}
	}
}

// withoutAllocs splits the allocation counts off a ledger. They are the
// one inexact count: Go seeds every map's hash per instance, so how
// often a map grows, and so allocates, varies by a few per 10^5
// packets between otherwise identical passes.
func withoutAllocs(c counts) (counts, [4]uint64) {
	a := [4]uint64{c.DecodeAllocs, c.BuildAllocs, c.ShardAllocs, c.ReplayAllocs}
	c.DecodeAllocs, c.BuildAllocs, c.ShardAllocs, c.ReplayAllocs = 0, 0, 0, 0
	return c, a
}

// allocsClose accepts allocation counts within 0.1% (or 4) of each
// other.
func allocsClose(a, b [4]uint64) bool {
	for i := range a {
		d := max(a[i], b[i]) - min(a[i], b[i])
		if d > max(4, max(a[i], b[i])/1000) {
			return false
		}
	}
	return true
}

// TestLedgerExact: two count passes over one seed produce identical
// counts, and the counts do not depend on the tier: the jit and the
// predecoded loop retire the same instructions and make the same calls.
func TestLedgerExact(t *testing.T) {
	clk := calibrateClock()
	for _, name := range workloadNames {
		w, err := newWorkload(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		first, _, err := countPass(w, clk)
		if err != nil {
			t.Fatal(err)
		}
		second, outs, err := countPass(w, clk)
		if err != nil {
			t.Fatal(err)
		}
		c1, a1 := withoutAllocs(first.Counts)
		c2, a2 := withoutAllocs(second.Counts)
		if !reflect.DeepEqual(c1, c2) || !allocsClose(a1, a2) {
			t.Errorf("%s: same-seed ledgers differ:\n%+v\n%+v", name, first.Counts, second.Counts)
		}
		c := first.Counts
		if c.Insns == 0 || c.Insns != c.StatsInsns {
			t.Errorf("%s: jit retired %d insns, stats counted %d", name, c.Insns, c.StatsInsns)
		}
		ref, err := newReference(w)
		if err != nil {
			t.Fatal(err)
		}
		_, failed, mismatch, err := ref.check(outs)
		ref.close()
		if err != nil || failed != 0 {
			t.Errorf("%s: count passes against the reference: %d failed (%s), %v", name, failed, mismatch, err)
		}
		for _, tn := range w.tenants {
			tn.req.Options.Tier = referenceTier
		}
		pre, _, err := countPass(w, clk)
		if err != nil {
			t.Fatal(err)
		}
		// The jit compiles lazily on the first batch, so replay
		// allocations are compared only within one tier.
		jit, aj := withoutAllocs(c)
		predecoded, ap := withoutAllocs(pre.Counts)
		aj[3], ap[3] = 0, 0
		if !reflect.DeepEqual(jit, predecoded) || !allocsClose(aj, ap) {
			t.Errorf("%s: jit and predecoded counts differ:\n%+v\n%+v", name, c, pre.Counts)
		}
	}
}
