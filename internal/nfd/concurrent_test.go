package nfd_test

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sync"
	"testing"

	"enetstl/internal/harness"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/nfd"
	"enetstl/internal/runtime"
)

// TestShardedIngestConcurrent pins concurrent shard replay against the
// serial oracle. A 4-shard guarded module with per-shard stats and a
// flight recorder ingests batches over HTTP while another goroutine
// scrapes /metrics, the module's stats and its trace. A twin module
// built from the same request replays each batch serially, one
// harness.ReplayBatch per shard: every batch's tally and every shard's
// guard tick must match it exactly, and the merged stats must count one
// program run per packet the guards admitted. The cases cover VM shards
// (eBPF and kfunc-assisted) and metered native shards over a per-CPU
// map. Under -race this also pins that shards share no unsynchronized
// state.
func TestShardedIngestConcurrent(t *testing.T) {
	for _, c := range []struct{ name, flavor, percpu string }{
		{"conntrack", "ebpf", "false"},
		{"cuckooswitch", "enetstl", "false"},
		{"conntrack", "kernel", "true"},
	} {
		t.Run(c.name+"/"+c.flavor, func(t *testing.T) {
			testShardedIngestConcurrent(t, fmt.Sprintf(`{"name": %q, "flavor": %q,
				"options": {"tier": "jit", "shards": 4, "percpu": %s, "stats": true,
					"trace": {"capacity": 1024, "sample_rate": 0.05, "seed": 3},
					"guard": {"enabled": true}},
				"trace": {"flows": 256, "packets": 1000, "seed": 3}}`, c.name, c.flavor, c.percpu))
		})
	}
}

func testShardedIngestConcurrent(t *testing.T, create string) {
	srv, ts := newTestServer(t)
	var req nfd.CreateRequest
	if err := json.Unmarshal([]byte(create), &req); err != nil {
		t.Fatal(err)
	}
	var st nfd.Status
	if code, data := do(t, "POST", ts.URL+"/modules", create, &st); code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, data)
	}
	// The twin lives in its own registry, out of the scraped daemon's
	// sight: its instances are replayed directly, outside its mutex.
	twin, err := nfd.NewRegistry().Create(req)
	if err != nil {
		t.Fatal(err)
	}
	ref, refTicks := twin.ShardState()
	mod, ok := srv.Registry.Get(st.ID)
	if !ok {
		t.Fatalf("module %s missing from the registry", st.ID)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			do(t, "GET", ts.URL+"/metrics", "", nil)
			do(t, "GET", ts.URL+"/modules/"+st.ID+"/stats", "", nil)
			do(t, "GET", ts.URL+"/modules/"+st.ID+"/trace?limit=256", "", nil)
		}
	}()

	var sent, shed uint64
	for j := 0; j < 6; j++ {
		spec := runtime.TraceSpec{Flows: 256, Packets: 3000, Zipf: 1.1, Seed: int64(40 + j), Scenario: "churn"}
		specBody, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var got harness.BatchResult
		if code, data := do(t, "POST", ts.URL+"/modules/"+st.ID+"/packets", string(specBody), &got); code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Fatalf("batch %d: status %d: %s", j, code, data)
		}

		tr, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		nfcatalog.PrepareTrace(req.Name, tr)
		var want harness.BatchResult
		for s, sub := range tr.Shard(req.Options.Shards) {
			res, next, err := harness.ReplayBatch(ref[s], sub, refTicks[s])
			if err != nil {
				t.Fatalf("batch %d: serial shard %d: %v", j, s, err)
			}
			refTicks[s] = next
			want.Packets += res.Packets
			want.Shed += res.Shed
			want.Sampled += res.Sampled
			want.Verdicts.Add(res.Verdicts)
		}
		if got.Packets != want.Packets || got.Shed != want.Shed || got.Sampled != want.Sampled ||
			!maps.Equal(got.VerdictMap, want.Verdicts.Map()) {
			t.Fatalf("batch %d: concurrent %+v, serial %+v", j, got, want.Verdicts.Map())
		}
		if _, ticks := mod.ShardState(); !slices.Equal(ticks, refTicks) {
			t.Fatalf("batch %d: guard ticks %v, serial %v", j, ticks, refTicks)
		}
		sent += uint64(got.Packets)
		shed += got.Shed
	}
	close(done)
	wg.Wait()

	var stats struct {
		Programs []struct {
			RunCnt uint64 `json:"run_cnt"`
		} `json:"programs"`
	}
	if code, data := do(t, "GET", ts.URL+"/modules/"+st.ID+"/stats", "", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d: %s", code, data)
	}
	var runs uint64
	for _, p := range stats.Programs {
		runs += p.RunCnt
	}
	if runs != sent-shed {
		t.Fatalf("merged stats count %d runs, want %d (%d sent, %d shed)", runs, sent-shed, sent, shed)
	}
	t.Logf("%d packets sent, %d shed", sent, shed)
}
