// Command nfdbench is the end-to-end benchmark of the nfd daemon. One
// process starts an nfd server on loopback, creates a workload's
// modules over POST /modules and drives POST /modules/{id}/packets in a
// closed loop: one client on one keep-alive connection sends the next
// batch only after the previous tally came back. Every batch is
// generated from --seed; every tally, and the modules' estimates at the
// end of each pass, are checked against a reference replay on the
// predecoded tier.
//
// With --trace 0 it prints the end-to-end metrics of a timed window;
// with --trace 1 the per-layer metrics of a traced window and an
// exact-count pass. The last line of standard output is one JSON object
// {correct, attempted, failed, metrics}; the run record, count ledger
// and spans go to a JSON file under --out. It exits non-zero when any
// batch or estimate fails the check.
//
//	go run . --workload sketch-vm --seed 1 --seconds 8 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"time"
)

const (
	// setupCycles is how many create → first batch → delete cycles
	// setup_s is the median of.
	setupCycleCount = 25
	// minTimedBatches keeps at least 10 samples beyond p95.
	minTimedBatches = 200
	// In a traced run the untraced window takes this share of --seconds
	// and the traced window the rest.
	untracedShare = 0.4
	minLayerBatch = 50
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	commit   string
	// minBatches and setupCycles size a run; the command uses
	// minTimedBatches and setupCycleCount, the smoke tests less.
	minBatches  int
	setupCycles int
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is what the run writes under --out.
type runRecord struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Trace      int      `json:"trace"`
	Seconds    float64  `json:"seconds"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"nproc"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Tenants    []string `json:"tenants"`
	// Modules records each module's configured tier and the tier that
	// ran in each pass.
	Modules []moduleTiers `json:"modules"`
	// The closed-loop window: the timed one, or a traced run's untraced
	// one (the traced window's batches are in Spans).
	Batches int       `json:"window_batches"`
	Packets int       `json:"window_packets"`
	WallS   float64   `json:"window_wall_s"`
	SetupS  []float64 `json:"setup_cycles_s,omitempty"`
	RTTms   []float64 `json:"window_batch_rtt_ms,omitempty"`
	// LatencyMs maps "p50", "p90", "p95", "p99" to batch round trips.
	LatencyMs map[string]float64 `json:"window_latency_ms,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Mismatch  string             `json:"first_mismatch,omitempty"`
	// Traced runs only.
	UntracedPps  float64            `json:"untraced_pps,omitempty"`
	TracedPps    float64            `json:"traced_pps,omitempty"`
	Breakdown    *breakdown         `json:"layer_ns_per_pkt,omitempty"`
	SelfNsPerPkt map[string]float64 `json:"span_self_ns_per_pkt,omitempty"`
	Predictions  []prediction       `json:"predictions,omitempty"`
	Ledger       *ledger            `json:"ledger,omitempty"`
	Metrics      map[string]metric  `json:"metrics"`
	Spans        []span             `json:"spans,omitempty"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload: one of %v", workloadNames))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: every batch and generator seed derives from it")
	flag.Float64Var(&o.seconds, "seconds", 8, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "runs"), "directory for the run record")
	flag.StringVar(&o.commit, "commit", "unknown", "source commit, for the run record")
	flag.Parse()
	o.minBatches, o.setupCycles = minTimedBatches, setupCycleCount
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "nfdbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nfdbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nfdbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(o options) (*result, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	rec := &runRecord{
		Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		GOMAXPROCS: goruntime.GOMAXPROCS(0), NumCPU: goruntime.NumCPU(),
		GoVersion: goruntime.Version(), Commit: o.commit,
	}
	for _, t := range w.tenants {
		rec.Tenants = append(rec.Tenants, fmt.Sprintf("%s/%s", t.req.Name, t.req.Flavor))
	}
	heap0 := liveHeap()
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	var outs []*outcome
	if o.trace == 0 {
		outs, err = timedRun(d, w, o, rec, heap0)
	} else {
		outs, err = tracedRun(d, w, o, rec)
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	for _, t := range w.tenants {
		pass := "timed"
		if o.trace == 1 {
			pass = "untraced, traced"
		}
		rec.Modules = append(rec.Modules, moduleTiers{
			Module: t.req.Name + "/" + t.req.Flavor, Configured: t.req.Options.Canon().Tier,
			Ran: map[string]string{pass: tierRan(t.req), "reference": referenceTier},
		})
	}

	ref, err := newReference(w)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	rec.Attempted, rec.Failed, rec.Mismatch, err = ref.check(outs)
	if err != nil {
		return nil, err
	}
	if rec.Mismatch != "" {
		fmt.Fprintln(os.Stderr, "nfdbench: output check failed:", rec.Mismatch)
	}
	if err := writeRecord(o, rec); err != nil {
		return nil, err
	}
	return &result{
		Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics,
	}, nil
}

// timedRun measures set-up cycles, then one closed-loop window over
// fresh modules.
func timedRun(d *daemon, w *workload, o options, rec *runRecord, heap0 uint64) ([]*outcome, error) {
	secs, outs, err := setupCycles(d, w, o.setupCycles)
	if err != nil {
		return nil, err
	}
	out, win, heap, err := loopPass(d, w, "timed", o.seconds, o.minBatches)
	if err != nil {
		return nil, err
	}
	var live uint64
	if heap > heap0 {
		live = heap - heap0
	}
	rec.SetupS, rec.RTTms = secs, win.rttMs
	sorted := append([]float64(nil), win.rttMs...)
	sort.Float64s(sorted)
	rec.LatencyMs = map[string]float64{}
	for _, q := range tailQuantiles {
		rec.LatencyMs[fmt.Sprintf("p%g", q*100)] = quantile(sorted, q)
	}
	rec.Batches, rec.Packets, rec.WallS = win.batches, win.packets, win.wall.Seconds()
	rec.Metrics = endToEnd(out, win, live, secs)
	return append(outs, out), nil
}

// tracedRun measures an untraced window, a traced window and a count
// pass, and derives the per-layer metrics from them.
func tracedRun(d *daemon, w *workload, o options, rec *runRecord) ([]*outcome, error) {
	minBatches := min(o.minBatches, minLayerBatch)
	plain, win, _, err := loopPass(d, w, "untraced", o.seconds*untracedShare, minBatches)
	if err != nil {
		return nil, err
	}
	clk := calibrateClock()
	remote, local, log, tot, err := tracedPass(d, w, o.seconds*(1-untracedShare), minBatches, clk)
	if err != nil {
		return nil, err
	}
	lg, counted, err := countPass(w, clk)
	if err != nil {
		return nil, err
	}
	rec.Batches, rec.Packets, rec.WallS = win.batches, win.packets, win.wall.Seconds()
	rec.UntracedPps = float64(win.packets) / win.wall.Seconds()
	rec.TracedPps = tracedPps(tot)
	b := tot.breakdown()
	rec.Breakdown = &b
	rec.SelfNsPerPkt = map[string]float64{}
	for name, ns := range log.selfNs() {
		rec.SelfNsPerPkt[name] = div(float64(ns), float64(tot.packets))
	}
	rec.Ledger = lg
	rec.Metrics = perLayer(tot, lg, win)
	rec.Predictions = predict(w.name, b, rec.Metrics)
	rec.Spans = log.spans
	for _, p := range rec.Predictions {
		fmt.Fprintf(os.Stderr, "nfdbench: %s: %s = %.4g (holds: %v)\n", w.name, p.Claim, p.Value, p.Holds)
	}
	return append([]*outcome{plain, remote, local}, counted...), nil
}

// prediction is an expectation, stated when the workloads were chosen,
// about a workload's dominant layer, checked on the traced run.
type prediction struct {
	Claim string  `json:"claim"`
	Value float64 `json:"value"`
	Holds bool    `json:"holds"`
}

func predict(workload string, b breakdown, m map[string]metric) []prediction {
	share := func(v float64) float64 { return div(v, b.total()) }
	nonzero := func(name string) prediction {
		v := m[name].Value
		return prediction{name + " > 0", v, v > 0}
	}
	switch workload {
	case "raw-ingest":
		v := share(b.NFD + b.Runtime)
		return []prediction{{"(nfd + runtime) share of the traced round trip > 0.5", v, v > 0.5}}
	case "sketch-vm":
		v := share(b.VM)
		return []prediction{{"vm share of the traced round trip > 0.5", v, v > 0.5}}
	case "table-mix":
		return []prediction{
			nonzero("core.kfunc_calls_per_pkt"), nonzero("maps.evictions_per_pkt"),
			nonzero("guard.ns_per_pkt"), nonzero("pktgen.shard_ns_per_pkt"),
			{"guard.admit_frac < 1", m["guard.admit_frac"].Value, m["guard.admit_frac"].Value < 1},
		}
	case "observed":
		return []prediction{nonzero("obs.stats_ns_per_pkt")}
	}
	return nil
}

func writeRecord(o options, rec *runRecord) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", o.workload, o.seed, o.trace, time.Now().UnixNano())
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, name), data, 0o644)
}
