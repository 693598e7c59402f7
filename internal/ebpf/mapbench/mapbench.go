// Package mapbench measures the bucketed wide-compare hash core
// against the flat open-addressed reference: map-op micro-benchmarks
// (lookup hit/miss at small and large table sizes, overwrite, steady
// churn, LRU eviction churn) and a lookup-heavy NF macro (conntrack
// replay under each core). Every comparison runs the two impls
// interleaved within one invocation, best-of-N samples each, because
// on a shared host the noise between invocations dwarfs the effect
// under measurement; only adjacent min-of-N samples are comparable.
// cmd/mapbench renders the results and writes the committed
// BENCH_maps.json artifact.
package mapbench

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"enetstl/internal/ebpf/maps"
	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
)

// Config tunes a measurement run.
type Config struct {
	// Reps is the interleaved sample count per impl (best-of; default 5).
	Reps int
	// SampleMs is the minimum duration of one timed sample (default 40).
	SampleMs int
	// Packets is the NF replay trace length (default 8192).
	Packets int
}

func (c Config) withDefaults() Config {
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.SampleMs <= 0 {
		c.SampleMs = 40
	}
	if c.Packets <= 0 {
		c.Packets = 8192
	}
	return c
}

// MicroResult compares the two cores on one map-op micro-benchmark.
type MicroResult struct {
	Name     string  `json:"name"`
	FlatNs   float64 `json:"flat_ns_per_op"`
	BucketNs float64 `json:"bucket_ns_per_op"`
	Speedup  float64 `json:"speedup"`
}

// MacroResult compares the cores on one NF replay.
type MacroResult struct {
	NF        string  `json:"nf"`
	FlatPPS   float64 `json:"flat_pps"`
	BucketPPS float64 `json:"bucket_pps"`
	Speedup   float64 `json:"speedup"`
}

// Report is the full artifact committed as BENCH_maps.json.
type Report struct {
	Note         string        `json:"note"`
	GoMaxProcs   int           `json:"gomaxprocs"`
	Micro        []MicroResult `json:"micro"`
	MicroGeomean float64       `json:"micro_geomean_speedup"`
	Macro        []MacroResult `json:"macro"`
}

// micro is one map-op benchmark: setup builds the per-impl state and
// returns a runner that performs n ops. Key/value geometry is the
// conntrack shape (16-byte 5-tuple keys, 8-byte values) throughout —
// the layout both cores are tuned for.
type micro struct {
	name  string
	setup func(impl maps.Impl) (func(n int) error, error)
}

const (
	keyLen   = 16
	valLen   = 8
	smallCap = 128   // conntrack's flow-table sizing: L1 fits in L1 cache
	largeCap = 16384 // spills working set past cache: stresses the layout
)

// genKeys derives n random distinct-with-overwhelming-probability keys
// from a fixed seed, so both impls see the identical op stream.
func genKeys(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		k := make([]byte, keyLen)
		rng.Read(k)
		out[i] = k
	}
	return out
}

func fill(m maps.HashMap, keys [][]byte) error {
	val := make([]byte, valLen)
	for i, k := range keys {
		val[0] = byte(i)
		if err := m.Update(k, val); err != nil {
			return fmt.Errorf("prefill %d: %w", i, err)
		}
	}
	return nil
}

// lookupHit probes a full table with keys that are all present, in a
// shuffled order so the access pattern is not the insert order.
func lookupHit(capacity int) func(maps.Impl) (func(int) error, error) {
	return func(impl maps.Impl) (func(int) error, error) {
		m, err := maps.NewHashImpl(impl, keyLen, valLen, capacity)
		if err != nil {
			return nil, err
		}
		keys := genKeys(capacity, 0xa11ce)
		if err := fill(m, keys); err != nil {
			return nil, err
		}
		rand.New(rand.NewSource(7)).Shuffle(len(keys), func(i, j int) {
			keys[i], keys[j] = keys[j], keys[i]
		})
		return func(n int) error {
			for i := 0; i < n; i++ {
				if m.Lookup(keys[i%len(keys)]) == nil {
					return fmt.Errorf("present key missed")
				}
			}
			return nil
		}, nil
	}
}

// lookupMiss probes a full table with keys that are all absent — the
// worst case for the flat core's probe chains and for the bucketed
// core's overflow-marker walks.
func lookupMiss(capacity int) func(maps.Impl) (func(int) error, error) {
	return func(impl maps.Impl) (func(int) error, error) {
		m, err := maps.NewHashImpl(impl, keyLen, valLen, capacity)
		if err != nil {
			return nil, err
		}
		if err := fill(m, genKeys(capacity, 0xa11ce)); err != nil {
			return nil, err
		}
		absent := genKeys(capacity, 0xbad5eed)
		return func(n int) error {
			for i := 0; i < n; i++ {
				if m.Lookup(absent[i%len(absent)]) != nil {
					return fmt.Errorf("absent key found")
				}
			}
			return nil
		}, nil
	}
}

// overwrite updates keys that are already present (the conntrack
// per-packet counter bump).
func overwrite(capacity int) func(maps.Impl) (func(int) error, error) {
	return func(impl maps.Impl) (func(int) error, error) {
		m, err := maps.NewHashImpl(impl, keyLen, valLen, capacity)
		if err != nil {
			return nil, err
		}
		keys := genKeys(capacity, 0xa11ce)
		if err := fill(m, keys); err != nil {
			return nil, err
		}
		val := make([]byte, valLen)
		return func(n int) error {
			for i := 0; i < n; i++ {
				val[0] = byte(i)
				if err := m.Update(keys[i%len(keys)], val); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}
}

// churn holds the table at half capacity while sliding a window of
// live keys through a larger key universe: every op pair is one delete
// of the oldest key and one insert of a fresh one.
func churn(capacity int) func(maps.Impl) (func(int) error, error) {
	return func(impl maps.Impl) (func(int) error, error) {
		m, err := maps.NewHashImpl(impl, keyLen, valLen, capacity)
		if err != nil {
			return nil, err
		}
		universe := genKeys(4*capacity, 0xa11ce)
		live := capacity / 2
		if err := fill(m, universe[:live]); err != nil {
			return nil, err
		}
		val := make([]byte, valLen)
		base := 0
		return func(n int) error {
			for i := 0; i < n; i++ {
				if err := m.Delete(universe[base%len(universe)]); err != nil {
					return fmt.Errorf("churn delete: %w", err)
				}
				if err := m.Update(universe[(base+live)%len(universe)], val); err != nil {
					return fmt.Errorf("churn insert: %w", err)
				}
				base++
			}
			return nil
		}, nil
	}
}

// lruChurn drives an LRU table with twice its capacity in distinct
// keys, round-robin, so every insert evicts — the SYN-flood regime.
func lruChurn(capacity int) func(maps.Impl) (func(int) error, error) {
	return func(impl maps.Impl) (func(int) error, error) {
		l, err := maps.NewLRUHashImpl(impl, keyLen, valLen, capacity)
		if err != nil {
			return nil, err
		}
		keys := genKeys(2*capacity, 0xa11ce)
		val := make([]byte, valLen)
		i := 0
		return func(n int) error {
			for ; n > 0; n-- {
				if err := l.Update(keys[i%len(keys)], val); err != nil {
					return err
				}
				i++
			}
			return nil
		}, nil
	}
}

func micros() []micro {
	return []micro{
		{fmt.Sprintf("lookup_hit/%d", smallCap), lookupHit(smallCap)},
		{fmt.Sprintf("lookup_hit/%d", largeCap), lookupHit(largeCap)},
		{fmt.Sprintf("lookup_miss/%d", smallCap), lookupMiss(smallCap)},
		{fmt.Sprintf("lookup_miss/%d", largeCap), lookupMiss(largeCap)},
		{fmt.Sprintf("overwrite/%d", largeCap), overwrite(largeCap)},
		{fmt.Sprintf("churn/%d", largeCap), churn(largeCap)},
		{fmt.Sprintf("lru_churn/%d", smallCap), lruChurn(smallCap)},
	}
}

// sampleOps times run until the sample lasts at least sampleMs,
// returning ns per op.
func sampleOps(run func(n int) error, sampleMs int) (float64, error) {
	target := time.Duration(sampleMs) * time.Millisecond
	for n := 1024; ; n *= 2 {
		start := time.Now()
		if err := run(n); err != nil {
			return 0, err
		}
		if el := time.Since(start); el >= target {
			return float64(el.Nanoseconds()) / float64(n), nil
		}
	}
}

// RunMicros measures every micro-benchmark, flat vs bucket
// interleaved, best of cfg.Reps samples each.
func RunMicros(cfg Config) ([]MicroResult, float64, error) {
	cfg = cfg.withDefaults()
	var out []MicroResult
	logSum := 0.0
	for _, mc := range micros() {
		flat, err := mc.setup(maps.ImplFlat)
		if err != nil {
			return nil, 0, fmt.Errorf("%s/flat: %w", mc.name, err)
		}
		bucket, err := mc.setup(maps.ImplBucket)
		if err != nil {
			return nil, 0, fmt.Errorf("%s/bucket: %w", mc.name, err)
		}
		// Warm up: touch the arenas, settle branch history.
		if err := flat(4096); err != nil {
			return nil, 0, fmt.Errorf("%s/flat: %w", mc.name, err)
		}
		if err := bucket(4096); err != nil {
			return nil, 0, fmt.Errorf("%s/bucket: %w", mc.name, err)
		}
		res := MicroResult{Name: mc.name, FlatNs: math.Inf(1), BucketNs: math.Inf(1)}
		for rep := 0; rep < cfg.Reps; rep++ {
			f, err := sampleOps(flat, cfg.SampleMs)
			if err != nil {
				return nil, 0, fmt.Errorf("%s/flat: %w", mc.name, err)
			}
			b, err := sampleOps(bucket, cfg.SampleMs)
			if err != nil {
				return nil, 0, fmt.Errorf("%s/bucket: %w", mc.name, err)
			}
			res.FlatNs = math.Min(res.FlatNs, f)
			res.BucketNs = math.Min(res.BucketNs, b)
		}
		res.Speedup = res.FlatNs / res.BucketNs
		logSum += math.Log(res.Speedup)
		out = append(out, res)
	}
	return out, math.Exp(logSum / float64(len(out))), nil
}

// RunMacro measures the lookup-heavy conntrack replay (flow table is
// the only hot map) under each core, in both map-driven flavours,
// interleaved best of cfg.Reps passes. The flow count sits below the
// table capacity so the steady state is hit-dominated — the regime the
// bucketed fast path is built for.
func RunMacro(cfg Config) ([]MacroResult, error) {
	cfg = cfg.withDefaults()
	var out []MacroResult
	for seed, flavor := range []nf.Flavor{nf.Kernel, nf.EBPF} {
		trace := pktgen.Generate(pktgen.Config{
			Flows: 96, Packets: cfg.Packets, ZipfS: 1.1, Seed: int64(4200 + seed)})
		nfcatalog.PrepareTrace("conntrack", trace)
		build := func(impl maps.Impl) (nf.Instance, *pktgen.Trace, error) {
			tr := trace.Clone()
			inst, err := runtime.Under(runtime.Options{MapImpl: impl.String()},
				func() (nf.Instance, error) {
					return nfcatalog.Build("conntrack", flavor, tr)
				})
			if err != nil {
				return nil, nil, fmt.Errorf("conntrack/%v@%v: %w", flavor, impl, err)
			}
			if _, _, err := harness.ReplayBatch(inst, tr, 0); err != nil { // warm-up pass
				return nil, nil, err
			}
			return inst, tr, nil
		}
		fi, ft, err := build(maps.ImplFlat)
		if err != nil {
			return nil, err
		}
		bi, bt, err := build(maps.ImplBucket)
		if err != nil {
			return nil, err
		}
		res := MacroResult{NF: fmt.Sprintf("conntrack/%v", flavor)}
		for rep := 0; rep < cfg.Reps; rep++ {
			f, _, err := harness.ReplayBatch(fi, ft, 0)
			if err != nil {
				return nil, err
			}
			b, _, err := harness.ReplayBatch(bi, bt, 0)
			if err != nil {
				return nil, err
			}
			res.FlatPPS = math.Max(res.FlatPPS, f.PPS())
			res.BucketPPS = math.Max(res.BucketPPS, b.PPS())
		}
		res.Speedup = res.BucketPPS / res.FlatPPS
		out = append(out, res)
	}
	return out, nil
}
