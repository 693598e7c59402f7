// Command nfrun runs a single network function in a chosen flavour over
// a synthetic trace and reports throughput — the quick way to poke at
// one NF outside the full benchmark harness.
//
// Usage:
//
//	nfrun -nf cmsketch -flavor enetstl -packets 100000 -flows 1024 -zipf 1.1
//
// With -serve it also mounts the live observability plane (/metrics,
// /trace, /profile, /debug/pprof) for the duration of the replay:
//
//	nfrun -nf cuckooswitch -flavor ebpf -serve :8080 -trace -hold
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"enetstl/internal/cliopts"
	"enetstl/internal/difftest"
	"enetstl/internal/ebpf/isa"
	"enetstl/internal/ebpf/verifier"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/obs"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
	"enetstl/internal/telemetry"
	"enetstl/internal/trace"
)

func main() {
	var (
		name      = flag.String("nf", "cmsketch", "network function: skiplist cuckooswitch cmsketch nitrosketch cuckoofilter bloom vbf eiffel timewheel edf tss heavykeeper spacesaving daryhash conntrack")
		flavorS   = flag.String("flavor", "enetstl", "kernel | ebpf | enetstl")
		trials    = flag.Int("trials", 3, "measurement trials")
		disasm    = flag.Bool("disasm", false, "print the NF's bytecode and exit (VM flavours)")
		profile   = flag.Bool("profile", false, "attribute execution time to helpers/kfuncs and exit (VM flavours)")
		chaos     = flag.Bool("chaos", false, "replay every registered NF (all flavours) and the composed apps under the fault-schedule grid, check the robustness contract, and exit")
		chaosSeed = flag.Uint64("chaos-seed", 0, "fault-plane seed for -chaos (0 = default); a failing seed replays bit-for-bit")
		difftest  = flag.Bool("difftest", false, "run the differential conformance suite (flavour equivalence over every NF plus a VM-vs-reference sweep) and exit")
		vmTrials  = flag.Int("vm-trials", 200, "generated programs for the -difftest VM differential sweep")
		attack    = flag.Bool("attack", false, "replay every registered NF (all flavours) under the adversarial scenario grid, guard off and on, check the overload contract, and exit")
		guardOn   = flag.Bool("guard", false, "front the instance with the overload-guard plane (token-bucket shedding, watchdog, degradation) during the replay; single shard only")

		serve       = flag.String("serve", "", "serve the observability plane (/metrics /trace /profile /debug/pprof) on this address during the replay; implies live VM stats")
		doTrace     = flag.Bool("trace", false, "attach the flight recorder; events go to /trace when -serve is set, else dumped as JSONL on stdout")
		traceCap    = flag.Int("trace-cap", 1<<16, "flight-recorder ring capacity (rounded up to a power of two)")
		traceSample = flag.Float64("trace-sample", 1.0, "head-sampling rate in [0,1]; 1 records every packet")
		traceSeed   = flag.Uint64("trace-seed", 1, "sampling seed (same seed + trace = same sampled packets)")
		hold        = flag.Bool("hold", false, "with -serve: keep serving after the replay until SIGINT/SIGTERM")
		smoke       = flag.Bool("smoke", false, "with -serve: self-scrape every endpoint after the replay and exit non-zero on failure")
	)
	rt := cliopts.Bind(flag.CommandLine, 1, true)
	tfl := cliopts.BindTrace(flag.CommandLine, 100000, 1024, 1.1)
	flag.Parse()

	ropts, err := rt.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *serve != "" {
		// -serve needs live VM stats: /profile and the vm_* scrape
		// families read these.
		ropts.Stats = true
	}
	if rt.PrintRequested() {
		if err := cliopts.Print(ropts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	ropts = ropts.Canon()
	// Install before anything constructs an instance: the map core and
	// interpreter tier are read at construction time only, and -stats
	// must flip before build so VMs created inside NF constructors are
	// metered, as with sysctl kernel.bpf_stats_enabled.
	if err := runtime.Install(ropts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stats, shards, percpu := ropts.Stats, ropts.Shards, ropts.PerCPU

	if *chaos {
		runChaos(tfl.Packets(), tfl.Flows(), tfl.Seed(), *chaosSeed, stats)
		return
	}
	if *difftest {
		runDifftest(tfl.Packets(), tfl.Flows(), tfl.Seed(), tfl.Zipf(), *vmTrials)
		return
	}
	if *attack {
		runAttack(tfl.Packets(), tfl.Flows(), tfl.Seed(), tfl.Scenario(), stats)
		return
	}

	flavor, err := nf.ParseFlavor(*flavorS)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tr, err := tfl.Spec().Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var tcfg *trace.Config
	if *doTrace {
		tcfg = &trace.Config{Capacity: *traceCap, SampleRate: *traceSample, Seed: *traceSeed}
	}
	// Single-shard tracing uses the global recorder so VMs built inside
	// NF constructors pick it up; sharded runs get per-shard rings from
	// ParallelRunTraced instead.
	var rec *trace.Recorder
	if tcfg != nil && shards <= 1 {
		rec = trace.NewRecorder(*tcfg)
		trace.SetGlobal(rec)
	}
	var srv *obs.Server
	var base string
	if *serve != "" {
		srv = obs.New()
		if rec != nil {
			srv.SetRecorder(rec)
		}
		addr, err := srv.Start(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		base = "http://" + addr
		fmt.Fprintf(os.Stderr, "obs: serving /metrics /trace /profile /debug/pprof on %s\n", base)
	}

	if *guardOn {
		if shards > 1 || *profile || *disasm {
			fmt.Fprintln(os.Stderr, "-guard supports the plain single-shard replay only")
			os.Exit(2)
		}
		runGuarded(*name, flavor, tr, stats, srv)
		finishServe(srv, base, *smoke, *hold)
		return
	}
	if shards > 1 || percpu {
		runSharded(*name, flavor, tr, shards, *trials, stats, percpu, tcfg, srv)
		finishServe(srv, base, *smoke, *hold)
		return
	}
	inst, err := nfcatalog.Build(*name, flavor, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var nativeStats *vm.Stats
	if stats {
		if _, ok := inst.(*nf.VMInstance); !ok {
			// Wall-clock metering for the Kernel flavour, so -stats covers
			// run_cnt/run_time_ns for every flavour; VM-backed instances
			// are metered by the VM itself.
			nativeStats = vm.NewStats()
			inst = runtime.Meter(inst, nativeStats)
		}
	}
	if *profile {
		rep, err := harness.Profile(inst, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(rep)
		return
	}
	if *disasm {
		v, ok := inst.(*nf.VMInstance)
		if !ok {
			fmt.Fprintf(os.Stderr, "-disasm: %s/%s is not a VM-backed instance\n", *name, *flavorS)
			os.Exit(2)
		}
		fmt.Printf("%s (%s): %d instructions\n", v.Name(), v.Flavor(), v.Prog.Len())
		fmt.Print(isa.Disassemble(v.Prog.Instructions()))
		return
	}
	if srv != nil {
		// Live instrumentation: per-packet latency and verdict counters
		// land in the server's registry while the replay runs.
		inst = obs.Instrument(inst, srv.Registry())
	}
	res, err := harness.Throughput(inst, tr, *trials)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(res)
	lat, err := harness.Latency(inst, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(lat)

	publishRun := func(reg *telemetry.Registry) {
		labels := []telemetry.Label{
			telemetry.L("nf", inst.Name()),
			telemetry.L("flavor", inst.Flavor().String()),
		}
		reg.Gauge("nf_pps", labels...).Set(res.PPS)
		reg.Gauge("nf_ns_per_pkt", labels...).Set(res.NsPerOp)
		reg.SetHelp("nf_pps", "mean throughput, packets per second")
		reg.SetHelp("nf_ns_per_pkt", "mean per-packet processing time")
		lat.Publish(reg)
	}
	if srv != nil {
		publishRun(srv.Registry())
	}
	if stats {
		merged := vm.CollectStats()
		merged.Merge(nativeStats)
		reg := telemetry.NewRegistry()
		merged.Publish(reg)
		publishRun(reg)
		fmt.Println()
		if err := reg.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if rec != nil && srv == nil {
		// -trace without -serve: dump the flight recording as JSONL.
		fmt.Fprintf(os.Stderr, "trace: %d events emitted, %d dropped, %d/%d packets sampled\n",
			rec.Emitted(), rec.Drops(), rec.SampledPackets(), rec.Packets())
		dumpEvents(rec.Drain(0))
	}
	finishServe(srv, base, *smoke, *hold)
}

// dumpEvents writes events as JSONL on stdout, the same shape /trace
// serves.
func dumpEvents(evs []trace.Event) {
	enc := json.NewEncoder(os.Stdout)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// finishServe runs the post-replay server phases: the -smoke self-scrape
// and the -hold wait. No-op when -serve is off.
func finishServe(srv *obs.Server, base string, smoke, hold bool) {
	if srv == nil {
		return
	}
	defer srv.Close()
	if smoke {
		if err := smokeCheck(base); err != nil {
			fmt.Fprintln(os.Stderr, "obs smoke:", err)
			os.Exit(1)
		}
		fmt.Println("obs smoke: /metrics /trace /profile /debug/pprof OK")
	}
	if hold {
		fmt.Fprintf(os.Stderr, "obs: replay done, holding %s (SIGINT to exit)\n", base)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
}

// smokeCheck self-scrapes every observability endpoint and validates the
// payload shapes — the CI gate behind `make obs-smoke`.
func smokeCheck(base string) error {
	get := func(path string) (string, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return "", fmt.Errorf("GET %s: %w", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", fmt.Errorf("GET %s: %w", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body), nil
	}
	metrics, err := get("/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{"vm_run_cnt", "nf_latency_ns_bucket", "nf_pps"} {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("/metrics missing family %q", want)
		}
	}
	traceBody, err := get("/trace?kind=verdict&limit=5")
	if err != nil {
		return err
	}
	verdicts := 0
	for _, line := range strings.Split(strings.TrimSpace(traceBody), "\n") {
		if line == "" {
			continue
		}
		var ev trace.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return fmt.Errorf("/trace: bad JSONL %q: %w", line, err)
		}
		if ev.Kind != trace.KindVerdict {
			return fmt.Errorf("/trace: kind filter leaked a %s event", ev.Kind)
		}
		verdicts++
	}
	if verdicts == 0 {
		return fmt.Errorf("/trace returned no verdict events")
	}
	profBody, err := get("/profile")
	if err != nil {
		return err
	}
	var reports []harness.ProfileReport
	if err := json.Unmarshal([]byte(profBody), &reports); err != nil {
		return fmt.Errorf("/profile: bad JSON: %w", err)
	}
	if len(reports) == 0 {
		return fmt.Errorf("/profile returned no reports")
	}
	if _, err := get("/debug/pprof/cmdline"); err != nil {
		return err
	}
	return nil
}

// runSharded replays the trace RSS-style: the NF's op mix is applied
// to the full trace, the trace is hash-partitioned by flow 5-tuple
// across N shards, and each shard replays on its own instance (own VM
// and maps) concurrently. Prints the merged result plus the per-shard
// breakdown. With tcfg set, each shard gets its own flight-recorder
// ring and the timestamp-merged stream goes to the obs server's /trace
// (or stdout as JSONL when not serving).
func runSharded(name string, flavor nf.Flavor, tr *pktgen.Trace, shards, trials int, stats bool, percpu bool, tcfg *trace.Config, srv *obs.Server) {
	nfcatalog.PrepareTrace(name, tr)
	sh := nfcatalog.NewSharded(name, flavor)
	if percpu {
		var err error
		sh, err = nfcatalog.NewShardedPerCPU(name, flavor, shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	build := harness.ShardBuilder(sh.Build)
	if srv != nil {
		// Instrument every shard's instance; the wrapper delegates VM()
		// so recorder/stats attachment still reaches the machines.
		build = func(shard int, sub *pktgen.Trace) (nf.Instance, error) {
			inst, err := sh.Build(shard, sub)
			if err != nil {
				return nil, err
			}
			return obs.Instrument(inst, srv.Registry()), nil
		}
	}
	var res *harness.ParallelResult
	var err error
	if tcfg != nil {
		res, err = harness.ParallelRunTraced(tr, shards, build, trials, *tcfg)
	} else {
		res, err = harness.ParallelRun(tr, shards, build, trials)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(res)
	fmt.Printf("merged verdicts: %s\n", res.Verdicts)
	for _, s := range res.PerShard {
		fmt.Printf("  shard %d: %6d packets %12.0f pps [%s]\n",
			s.Shard, s.Packets, s.PPS, s.Verdicts)
	}
	if p := sh.PerCPUTable(); p != nil {
		// Merge-on-read aggregation across the per-shard private copies:
		// the per-flow packet counters sum lane-wise into one view, the
		// way a control plane reads a kernel per-CPU map.
		var tracked uint64
		live := 0
		for f := range tr.FlowKeys {
			if pkts, ok := sh.FlowPackets(tr.FlowKeys[f][:]); ok {
				tracked += pkts
				live++
			}
		}
		fmt.Printf("percpu: %d private copies, %d flows live after merge, %d packets tracked, %d evictions\n",
			p.NumCPU(), live, tracked, p.Evictions())
	}
	publish := func(reg *telemetry.Registry) {
		if res.Stats != nil {
			res.Stats.Publish(reg)
		}
		reg.Gauge("nf_pps",
			telemetry.L("nf", res.Name), telemetry.L("flavor", res.Flavor),
			telemetry.L("shards", fmt.Sprint(res.Shards))).Set(res.PPS)
	}
	if srv != nil {
		publish(srv.Registry())
	}
	if tcfg != nil {
		fmt.Fprintf(os.Stderr, "trace: %d events emitted, %d dropped across %d shard rings\n",
			res.TraceEmitted, res.TraceDrops, res.Shards)
		if srv != nil {
			srv.AddEvents(res.Events)
		} else {
			dumpEvents(res.Events)
		}
	}
	if stats {
		reg := telemetry.NewRegistry()
		publish(reg)
		fmt.Println()
		if err := reg.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// runChaos drives the chaos harness over the full NF catalog and the
// composed apps, printing the per-site injection counters and any
// contract violations. Exits non-zero when the contract is violated.
func runChaos(packets, flows int, traceSeed int64, faultSeed uint64, stats bool) {
	cases, err := nfcatalog.Cases(nfcatalog.CasesConfig{
		Packets: packets, Flows: flows, Seed: traceSeed, Apps: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res := harness.Chaos(cases, harness.ChaosSchedules(), faultSeed)
	fmt.Println(res)
	for _, c := range res.SiteCounts {
		fmt.Printf("  site %-14s evaluated=%-8d injected=%d\n", c.Site, c.Evaluated, c.Injected)
	}
	if stats {
		reg := telemetry.NewRegistry()
		res.Publish(reg)
		fmt.Println()
		if err := reg.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if res.Failed() {
		os.Exit(1)
	}
}

// runAttack drives the adversarial grid over the full NF catalog: every
// NF in every flavour under each scenario, once bare and once behind
// the overload guard, checking the resilience contract (no panics, no
// XDP_ABORTED, lock balance, estimator bounds over the admitted
// substream, guard-on bound never looser). Exits non-zero on breach.
func runAttack(packets, flows int, traceSeed int64, scenario string, stats bool) {
	cfg := nfcatalog.AttackConfig{Packets: packets, Flows: flows, Seed: traceSeed}
	if scenario != "" {
		kind, ok := pktgen.ScenarioFromString(scenario)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q (syn-flood|churn|hash-collision)\n", scenario)
			os.Exit(2)
		}
		cfg.Scenarios = []pktgen.ScenarioKind{kind}
	}
	cases, err := nfcatalog.AttackCases(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res := harness.Attack(cases)
	fmt.Println(res)
	scenarios := cfg.Scenarios
	if len(scenarios) == 0 {
		scenarios = pktgen.Scenarios()
	}
	for _, k := range scenarios {
		fmt.Printf("  scenario %-14s shed=%d\n", k, res.Sheds(k.String()))
	}
	if stats {
		reg := telemetry.NewRegistry()
		res.Publish(reg)
		fmt.Println()
		if err := reg.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if res.Failed() {
		os.Exit(1)
	}
}

// runGuarded replays the trace through a single guarded instance on the
// trace's arrival clock, so attack-window bursts hit the shedder the
// way back-to-back line-rate packets would, then reports the guard's
// accounting next to throughput.
func runGuarded(name string, flavor nf.Flavor, tr *pktgen.Trace, stats bool, srv *obs.Server) {
	w, g, err := nfcatalog.BuildGuarded(name, flavor, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// ReplayBatch drives the guard on the trace's arrival clock, so
	// attack-window bursts are visible to the token bucket;
	// obs.Instrument would flatten the replay back onto the
	// one-tick-per-packet clock.
	res, _, err := harness.ReplayBatch(w, tr, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s/%s +guard: %d packets in %s, %.0f pps\n",
		w.Name(), w.Flavor(), res.Packets, time.Duration(res.Ns).Round(time.Microsecond), res.PPS())
	fmt.Printf("guard: budget=%d insns, admitted=%d shed=%d sampled-out=%d, shed-enters=%d watchdog-trips=%d degrade-enters=%d degraded=%v\n",
		g.Budget(), g.Admitted(), g.Shed(), g.SampledOut(),
		g.ShedEnters(), g.WatchdogTrips(), g.DegradeEnters(), g.Degraded())
	if srv != nil {
		g.Publish(srv.Registry())
	}
	if stats {
		reg := telemetry.NewRegistry()
		g.Publish(reg)
		vm.CollectStats().Publish(reg)
		fmt.Println()
		if err := reg.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// runDifftest runs the four standing differential suites: flavour
// equivalence over every registered NF, map-impl equivalence (flat vs
// bucketed core over bit-identical traces), interpreter-tier
// equivalence (wire vs predecoded vs jit over bit-identical traces),
// and the generated-program sweep that cross-checks the production VM
// against the reference interpreter. Exits non-zero on any divergence.
func runDifftest(packets, flows int, traceSeed int64, zipf float64, vmTrials int) {
	rep, err := difftest.RunEquivalence(difftest.Config{
		Packets: packets, Flows: flows, Seed: traceSeed, ZipfS: zipf})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(rep)

	irep, err := difftest.RunImplEquivalence(difftest.Config{
		Packets: packets, Flows: flows, Seed: traceSeed, ZipfS: zipf})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(irep)

	trep, err := difftest.RunInterpEquivalence(difftest.Config{
		Packets: packets, Flows: flows, Seed: traceSeed, ZipfS: zipf})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(trep)

	ctx := make([]byte, 64)
	for i := range ctx {
		ctx[i] = byte(i*7 + 1)
	}
	executed, rejected, diverged := 0, 0, 0
	for s := uint64(0); s < uint64(vmTrials); s++ {
		prog, err := difftest.GenProgram(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: %v\n", s, err)
			os.Exit(1)
		}
		switch err := difftest.CrossCheck(prog, ctx); {
		case err == nil:
			executed++
		case errors.Is(err, verifier.ErrRejected):
			rejected++
		default:
			diverged++
			fmt.Fprintf(os.Stderr, "seed %d: %v\n", s, err)
		}
	}
	fmt.Printf("vmdiff: %d programs executed, %d rejected, %d divergences\n",
		executed, rejected, diverged)
	if rep.Failed() || irep.Failed() || trep.Failed() || diverged > 0 {
		os.Exit(1)
	}
}
