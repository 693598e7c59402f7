package nfd_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"enetstl/internal/harness"
	"enetstl/internal/nf"
	"enetstl/internal/nfcatalog"
	"enetstl/internal/nfd"
	"enetstl/internal/pktgen"
	"enetstl/internal/runtime"
)

func newTestServer(t *testing.T) (*nfd.Server, *httptest.Server) {
	t.Helper()
	srv := nfd.NewServer()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Registry.Close()
		ts.Close()
	})
	return srv, ts
}

// do issues one request and decodes the JSON response into out (when
// non-nil), returning the status code and raw body.
func do(t *testing.T, method, url, body string, out any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad response JSON %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode, data
}

// TestLifecycleAllCatalog drives the full HTTP lifecycle — create, get,
// push a batch, delete, 404 — for every catalog NF in every flavour it
// supports.
func TestLifecycleAllCatalog(t *testing.T) {
	_, ts := newTestServer(t)
	for _, name := range nfcatalog.Names() {
		for _, flavor := range nfcatalog.SupportedFlavors(name) {
			flavorS := map[nf.Flavor]string{
				nf.Kernel: "kernel", nf.EBPF: "ebpf", nf.ENetSTL: "enetstl",
			}[flavor]
			t.Run(name+"/"+flavorS, func(t *testing.T) {
				body := fmt.Sprintf(
					`{"name": %q, "flavor": %q, "trace": {"flows": 64, "packets": 300, "seed": 3}}`,
					name, flavorS)
				var st nfd.Status
				if code, data := do(t, "POST", ts.URL+"/modules", body, &st); code != http.StatusCreated {
					t.Fatalf("create: status %d: %s", code, data)
				}
				if st.State != "attached" || st.Shards != 1 {
					t.Fatalf("created %+v, want attached/1 shard", st)
				}

				var res harness.BatchResult
				code, data := do(t, "POST", ts.URL+"/modules/"+st.ID+"/packets",
					`{"flows": 64, "packets": 300, "seed": 3}`, &res)
				if code != http.StatusOK {
					t.Fatalf("ingest: status %d: %s", code, data)
				}
				if res.Packets != 300 {
					t.Fatalf("ingest replayed %d packets, want 300", res.Packets)
				}

				var got nfd.Status
				if code, _ := do(t, "GET", ts.URL+"/modules/"+st.ID, "", &got); code != http.StatusOK {
					t.Fatalf("get: status %d", code)
				}
				if got.State != "running" || got.Packets != 300 {
					t.Fatalf("after batch: %+v, want running/300", got)
				}

				if code, data := do(t, "DELETE", ts.URL+"/modules/"+st.ID, "", nil); code != http.StatusOK {
					t.Fatalf("delete: status %d: %s", code, data)
				}
				if code, _ := do(t, "GET", ts.URL+"/modules/"+st.ID, "", nil); code != http.StatusNotFound {
					t.Fatalf("deleted module still answers: status %d", code)
				}
			})
		}
	}
}

func TestCreateRejections(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct{ name, body string }{
		{"unknown nf", `{"name": "nosuch", "flavor": "kernel"}`},
		{"unsupported flavor", `{"name": "skiplist", "flavor": "ebpf"}`},
		{"bad flavor", `{"name": "bloom", "flavor": "turbo"}`},
		{"bad options", `{"name": "bloom", "flavor": "kernel", "options": {"tier": "turbo"}}`},
		{"unknown field", `{"name": "bloom", "flavor": "kernel", "nope": 1}`},
		{"too many shards", fmt.Sprintf(`{"name": "bloom", "flavor": "kernel", "options": {"shards": %d}}`, runtime.MaxShards+1)},
	}
	for _, c := range cases {
		if code, _ := do(t, "POST", ts.URL+"/modules", c.body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, code)
		}
	}
	// Batches bounce off missing modules.
	if code, _ := do(t, "POST", ts.URL+"/modules/ghost-1/packets", `{"packets": 10}`, nil); code != http.StatusNotFound {
		t.Errorf("ingest into missing module: status %d, want 404", code)
	}
}

// TestConcurrentCreateDelete exercises the registry's lifecycle paths
// from racing handlers: creates, batches, lists, scrapes, and deletes
// all interleave. Run under -race this pins the locking design.
func TestConcurrentCreateDelete(t *testing.T) {
	_, ts := newTestServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			names := []string{"cmsketch", "bloom", "conntrack", "heavykeeper"}
			name := names[w%len(names)]
			for i := 0; i < 4; i++ {
				body := fmt.Sprintf(
					`{"name": %q, "flavor": "kernel", "options": {"stats": true}, "trace": {"flows": 32, "packets": 100, "seed": 5}}`,
					name)
				var st nfd.Status
				if code, data := do(t, "POST", ts.URL+"/modules", body, &st); code != http.StatusCreated {
					t.Errorf("worker %d: create status %d: %s", w, code, data)
					return
				}
				do(t, "POST", ts.URL+"/modules/"+st.ID+"/packets", `{"flows": 32, "packets": 200, "seed": 5}`, nil)
				do(t, "GET", ts.URL+"/modules", "", nil)
				do(t, "GET", ts.URL+"/metrics", "", nil)
				if code, _ := do(t, "DELETE", ts.URL+"/modules/"+st.ID, "", nil); code != http.StatusOK {
					t.Errorf("worker %d: delete status %d", w, code)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var list struct {
		Modules []nfd.Status `json:"modules"`
	}
	do(t, "GET", ts.URL+"/modules", "", &list)
	if len(list.Modules) != 0 {
		t.Fatalf("%d modules survived the churn", len(list.Modules))
	}
}

// TestQuotaEnforcement pins the 429 semantics: a quota-limited module
// sheds (429 with partial results) while an unlimited sibling on the
// same daemon replays the same stream untouched, and the shed counters
// are visible at /metrics. Construction-time quotas 429 at create.
func TestQuotaEnforcement(t *testing.T) {
	_, ts := newTestServer(t)

	// Tenant A: one instruction per arrival tick — sheds almost
	// everything. Tenant B: no quota.
	var limited, unlimited nfd.Status
	if code, data := do(t, "POST", ts.URL+"/modules",
		`{"name": "cmsketch", "flavor": "enetstl",
		  "options": {"quota": {"insn_budget": 1}},
		  "trace": {"flows": 64, "packets": 500, "seed": 7}}`, &limited); code != http.StatusCreated {
		t.Fatalf("create limited: status %d: %s", code, data)
	}
	if !limited.Guarded {
		t.Fatal("insn-budget quota did not arm the guard")
	}
	if code, data := do(t, "POST", ts.URL+"/modules",
		`{"name": "cmsketch", "flavor": "enetstl",
		  "trace": {"flows": 64, "packets": 500, "seed": 7}}`, &unlimited); code != http.StatusCreated {
		t.Fatalf("create unlimited: status %d: %s", code, data)
	}

	batch := `{"flows": 64, "packets": 2000, "seed": 7}`
	var shedRes harness.BatchResult
	code, data := do(t, "POST", ts.URL+"/modules/"+limited.ID+"/packets", batch, &shedRes)
	if code != http.StatusTooManyRequests {
		t.Fatalf("limited ingest: status %d (shed %d): %s", code, shedRes.Shed, data)
	}
	if shedRes.Shed == 0 || shedRes.Packets != 2000 {
		t.Fatalf("limited ingest: %+v, want sheds over 2000 packets", shedRes)
	}

	var okRes harness.BatchResult
	if code, data := do(t, "POST", ts.URL+"/modules/"+unlimited.ID+"/packets", batch, &okRes); code != http.StatusOK {
		t.Fatalf("unlimited ingest: status %d: %s", code, data)
	}
	if okRes.Shed != 0 {
		t.Fatalf("unlimited sibling shed %d packets", okRes.Shed)
	}

	_, metrics := do(t, "GET", ts.URL+"/metrics", "", nil)
	if !strings.Contains(string(metrics), "nf_guard_shed_total") {
		t.Fatal("/metrics missing nf_guard_shed_total for the limited module")
	}

	// Construction-time quota: a map-memory ceiling no flow table fits
	// under fails the create with 429, not 400.
	if code, data := do(t, "POST", ts.URL+"/modules",
		`{"name": "conntrack", "flavor": "kernel",
		  "options": {"quota": {"map_bytes": 64}}}`, nil); code != http.StatusTooManyRequests {
		t.Fatalf("map-bytes breach: status %d, want 429: %s", code, data)
	}
}

// TestGoldenJSONEqualsOptions pins the API-redesign invariant: a module
// built from a JSON request body and an instance built directly from
// the equivalent runtime.Options produce identical verdict tallies and
// identical estimator state over the same seeded stream.
func TestGoldenJSONEqualsOptions(t *testing.T) {
	_, ts := newTestServer(t)

	const nfName = "cmsketch"
	seedSpec := runtime.TraceSpec{Flows: 64, Packets: 800, Seed: 11}
	batchSpec := runtime.TraceSpec{Flows: 64, Packets: 2000, Zipf: 1.1, Seed: 11}
	opts := runtime.Options{Tier: "jit", MapImpl: "flat"}

	// HTTP path: JSON-built module, one batch.
	var st nfd.Status
	if code, data := do(t, "POST", ts.URL+"/modules",
		`{"name": "cmsketch", "flavor": "enetstl",
		  "options": {"tier": "jit", "map_impl": "flat"},
		  "trace": {"flows": 64, "packets": 800, "seed": 11}}`, &st); code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, data)
	}
	var httpRes harness.BatchResult
	if code, data := do(t, "POST", ts.URL+"/modules/"+st.ID+"/packets",
		`{"flows": 64, "packets": 2000, "zipf": 1.1, "seed": 11}`, &httpRes); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, data)
	}

	// Direct path: Options-built instance, same seed trace, same batch.
	seedTr, err := seedSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := nfcatalog.BuildWith(opts, nfName, nf.ENetSTL, seedTr)
	if err != nil {
		t.Fatal(err)
	}
	batchTr, err := batchSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	nfcatalog.PrepareTrace(nfName, batchTr)
	directRes, _, err := harness.ReplayBatch(b.Inst, batchTr, 0)
	if err != nil {
		t.Fatal(err)
	}

	if directRes.Packets != httpRes.Packets {
		t.Fatalf("packet counts diverge: http %d, direct %d", httpRes.Packets, directRes.Packets)
	}
	for verdict, n := range directRes.VerdictMap {
		if httpRes.VerdictMap[verdict] != n {
			t.Fatalf("verdict %q diverges: http %d, direct %d (http %v, direct %v)",
				verdict, httpRes.VerdictMap[verdict], n, httpRes.VerdictMap, directRes.VerdictMap)
		}
	}

	// Estimator state: both instances saw the same stream through the
	// same tier and map core, so per-flow estimates must match exactly.
	for i := 0; i < 8; i++ {
		var est struct {
			Estimate uint32 `json:"estimate"`
		}
		url := fmt.Sprintf("%s/modules/%s/estimates?flow=%d", ts.URL, st.ID, i)
		if code, data := do(t, "GET", url, "", &est); code != http.StatusOK {
			t.Fatalf("estimate flow %d: status %d: %s", i, code, data)
		}
		want := b.Est(seedTr.FlowKeys[i][:])
		if est.Estimate != want {
			t.Fatalf("flow %d estimate diverges: http %d, direct %d", i, est.Estimate, want)
		}
	}
}

// TestShardedModule exercises the multi-shard build and ingest path
// over HTTP, including the per-CPU backing.
func TestShardedModule(t *testing.T) {
	_, ts := newTestServer(t)
	var st nfd.Status
	if code, data := do(t, "POST", ts.URL+"/modules",
		`{"name": "conntrack", "flavor": "kernel",
		  "options": {"shards": 4, "percpu": true, "stats": true},
		  "trace": {"flows": 128, "packets": 1000, "seed": 9}}`, &st); code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, data)
	}
	if st.Shards != 4 {
		t.Fatalf("built %d shards, want 4", st.Shards)
	}
	var res harness.BatchResult
	if code, data := do(t, "POST", ts.URL+"/modules/"+st.ID+"/packets",
		`{"flows": 128, "packets": 1000, "seed": 9}`, &res); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, data)
	}
	if res.Packets != 1000 {
		t.Fatalf("sharded ingest replayed %d packets, want 1000", res.Packets)
	}
	if code, _ := do(t, "DELETE", ts.URL+"/modules/"+st.ID, "", nil); code != http.StatusOK {
		t.Fatalf("delete failed")
	}
}

// TestRawShardedIngest replays one raw (base64) batch through a
// 2-shard module and an unsharded one built from the same seed trace.
// Raw traces carry no flow table, so sharding must partition them by
// packet key alone; the merged tally must equal the unsharded one.
func TestRawShardedIngest(t *testing.T) {
	_, ts := newTestServer(t)
	tr := pktgen.Generate(pktgen.Config{Flows: 64, Packets: 400, ZipfS: 1.1, Seed: 5})
	raw := make([]string, len(tr.Packets))
	for i := range tr.Packets {
		raw[i] = base64.StdEncoding.EncodeToString(tr.Packets[i][:])
	}
	body, err := json.Marshal(runtime.TraceSpec{Raw: raw})
	if err != nil {
		t.Fatal(err)
	}
	tally := func(shards int) map[string]uint64 {
		var st nfd.Status
		if code, data := do(t, "POST", ts.URL+"/modules", fmt.Sprintf(
			`{"name": "cuckooswitch", "flavor": "ebpf", "options": {"shards": %d},
			  "trace": {"flows": 64, "packets": 400, "seed": 5}}`, shards), &st); code != http.StatusCreated {
			t.Fatalf("create %d shards: status %d: %s", shards, code, data)
		}
		var res harness.BatchResult
		if code, data := do(t, "POST", ts.URL+"/modules/"+st.ID+"/packets", string(body), &res); code != http.StatusOK {
			t.Fatalf("%d shards: raw ingest status %d: %s", shards, code, data)
		}
		if res.Packets != len(raw) {
			t.Fatalf("%d shards: replayed %d packets, want %d", shards, res.Packets, len(raw))
		}
		return res.VerdictMap
	}
	one, two := tally(1), tally(2)
	var total uint64
	for k, v := range one {
		total += v
		if two[k] != v {
			t.Fatalf("2-shard tally %v differs from unsharded %v", two, one)
		}
	}
	if total != uint64(len(raw)) {
		t.Fatalf("tally %v covers %d of %d packets", one, total, len(raw))
	}
}
