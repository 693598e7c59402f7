package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/url"
	"sort"
	"strconv"

	"enetstl/internal/harness"
	"enetstl/internal/nfd"
	"enetstl/internal/runtime"
)

// reference replays the workload's batch sequence through an in-process
// nfd.Registry built from the same CreateRequests on the predecoded
// tier, an engine independent of the jit the daemon's modules run on.
type reference struct {
	w       *workload
	reg     *nfd.Registry
	mods    []*nfd.Module
	tallies []tally
}

// referenceTier is the engine the reference runs on.
const referenceTier = "predecoded"

func newReference(w *workload) (*reference, error) {
	r := &reference{w: w, reg: nfd.NewRegistry()}
	for _, t := range w.tenants {
		req := t.req
		req.Options.Tier = referenceTier
		m, err := r.reg.Create(req)
		if err != nil {
			r.reg.Close()
			return nil, fmt.Errorf("reference %s: %w", req.Name, err)
		}
		r.mods = append(r.mods, m)
	}
	return r, nil
}

// decodeSpec decodes a packets body exactly as the daemon does:
// strictly, unknown fields rejected.
func decodeSpec(body []byte) (runtime.TraceSpec, error) {
	var spec runtime.TraceSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("bad packets body: %w", err)
	}
	return spec, nil
}

// advance replays the sequence up to (excluding) batch n.
func (r *reference) advance(n int) error {
	for i := len(r.tallies); i < n; i++ {
		t, body := r.w.batch(i)
		spec, err := decodeSpec(body)
		if err != nil {
			return err
		}
		res, err := r.mods[t].Ingest(spec)
		if err != nil {
			return fmt.Errorf("reference batch %d: %w", i, err)
		}
		r.tallies = append(r.tallies, tallyOf(res))
	}
	return nil
}

// estimate answers an estimates query string as the daemon would.
func (r *reference) estimate(t int, query string) (uint32, bool, error) {
	q, err := url.ParseQuery(query)
	if err != nil {
		return 0, false, err
	}
	m := r.mods[t]
	var key []byte
	if f := q.Get("flow"); f != "" {
		i, err := strconv.Atoi(f)
		if err != nil {
			return 0, false, err
		}
		k, ok := m.FlowKey(i)
		if !ok {
			return 0, false, fmt.Errorf("flow %d outside seed trace", i)
		}
		key = k
	} else if key, err = hex.DecodeString(q.Get("key")); err != nil {
		return 0, false, err
	}
	est, ok := m.Estimate(key)
	return est, ok, nil
}

func (r *reference) close() { r.reg.Close() }

// tally is everything a batch result reports except timing: the
// packets, shed and head-sampled counts and the verdict counts.
type tally struct {
	Packets, Shed, Sampled         uint64
	Aborted, Drop, Pass, Tx, Other uint64
}

// sum hashes the tally (FNV-1a over its words). Passes keep only the
// sum per batch, so what the benchmark itself holds during a window
// barely grows the heap whose collection pacing the daemon is measured
// under.
func (t tally) sum() uint64 {
	h := uint64(14695981039346656037)
	for _, v := range [...]uint64{t.Packets, t.Shed, t.Sampled, t.Aborted, t.Drop, t.Pass, t.Tx, t.Other} {
		h ^= v
		h *= 1099511628211
	}
	return h
}

func tallyOf(r harness.BatchResult) tally {
	v := r.VerdictMap
	return tally{
		Packets: uint64(r.Packets), Shed: r.Shed, Sampled: r.Sampled,
		Aborted: v["aborted"], Drop: v["drop"], Pass: v["pass"], Tx: v["tx"], Other: v["other"],
	}
}

// estimateProbe is one estimates answer observed at the end of a pass.
type estimateProbe struct {
	tenant int
	query  string
	est    uint32
	ok     bool
}

// outcome is one replay of a prefix of the batch sequence from fresh
// modules, checked against the reference: sums[i] is the sum of batch
// i's tally (failed[i] when the batch itself failed), probes were taken
// after the last batch.
type outcome struct {
	pass   string
	sums   []uint64
	failed []bool
	probes []estimateProbe
	// sent and shed count packets over the first admitPrefix batches.
	sent, shed uint64
}

func (o *outcome) record(res harness.BatchResult, err error) {
	if o.batches() < admitPrefix {
		o.sent += uint64(res.Packets)
		o.shed += res.Shed
	}
	o.sums = append(o.sums, tallyOf(res).sum())
	o.failed = append(o.failed, err != nil)
}

func (o *outcome) batches() int { return len(o.sums) }

// check verifies outcomes against the reference, replaying it as far
// as the longest one, and returns operations attempted and failed, plus
// a description of the first mismatch.
func (r *reference) check(outs []*outcome) (attempted, failed int, first string, err error) {
	// Probes compare end-of-pass state, so visit passes in length order
	// and take the reference's estimates at the same batch count.
	sorted := append([]*outcome(nil), outs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].batches() < sorted[j].batches() })
	note := func(format string, args ...any) {
		failed++
		if first == "" {
			first = fmt.Sprintf(format, args...)
		}
	}
	for _, o := range sorted {
		if err := r.advance(o.batches()); err != nil {
			return attempted, failed, first, err
		}
		for i, sum := range o.sums {
			attempted++
			switch {
			case o.failed[i]:
				note("%s batch %d failed", o.pass, i)
			case sum != r.tallies[i].sum():
				note("%s batch %d: tally differs from the reference's %+v", o.pass, i, r.tallies[i])
			}
		}
		for _, p := range o.probes {
			attempted++
			est, ok, err := r.estimate(p.tenant, p.query)
			if err != nil {
				return attempted, failed, first, err
			}
			if est != p.est || ok != p.ok {
				note("%s estimate %s: %d (ok=%v), reference %d (ok=%v)", o.pass, p.query, p.est, p.ok, est, ok)
			}
		}
	}
	return attempted, failed, first, nil
}
