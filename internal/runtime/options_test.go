package runtime

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"enetstl/internal/ebpf/maps"
	"enetstl/internal/ebpf/vm"
	"enetstl/internal/rpool"
)

func TestJSONRoundTrip(t *testing.T) {
	o := Options{
		Tier:    "jit",
		MapImpl: "flat",
		Shards:  4,
		PerCPU:  true,
		Stats:   true,
		Trace:   &TraceOptions{Capacity: 4096, SampleRate: 0.5, Seed: 9},
		Guard:   &GuardOptions{Enabled: true, InsnBudget: 1000, WatchdogFactor: 16},
		Quota:   &Quota{InsnBudget: 500, MapBytes: 1 << 20, RPoolCap: 1 << 12},
	}
	data, err := o.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o, back) {
		t.Fatalf("round trip diverged:\n  in  %+v\n  out %+v", o, back)
	}
}

func TestFromJSONStrict(t *testing.T) {
	if _, err := FromJSON([]byte(`{"teir": "jit"}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := FromJSON([]byte(`{"tier": "turbo"}`)); err == nil {
		t.Fatal("bad tier accepted")
	}
}

func TestValidate(t *testing.T) {
	bad := []Options{
		{Tier: "turbo"},
		{MapImpl: "cuckoo"},
		{Shards: -1},
		{Shards: MaxShards + 1},
		{Trace: &TraceOptions{SampleRate: 1.5}},
		{Trace: &TraceOptions{Capacity: -1}},
		{Guard: &GuardOptions{ResumeFrac: 2}},
		{Quota: &Quota{MapBytes: -1}},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", o)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero Options rejected: %v", err)
	}
	if err := (Options{Shards: MaxShards}).Validate(); err != nil {
		t.Fatalf("MaxShards rejected: %v", err)
	}
}

func TestCanonPinsDefaults(t *testing.T) {
	c := Options{}.Canon()
	d := Defaults()
	if c.Tier != d.Tier || c.MapImpl != d.MapImpl || c.Shards != 1 {
		t.Fatalf("Canon() = %+v, want tier %q impl %q shards 1", c, d.Tier, d.MapImpl)
	}
}

func TestGuardConfigQuotaForcesGuard(t *testing.T) {
	cfg, ok := Options{Quota: &Quota{InsnBudget: 777}}.GuardConfig()
	if !ok || !cfg.Enabled || cfg.InsnBudget != 777 {
		t.Fatalf("quota did not force guard: ok=%v cfg=%+v", ok, cfg)
	}
	if _, ok := (Options{}).GuardConfig(); ok {
		t.Fatal("zero Options claims a guard")
	}
	// Explicit guard options survive, tightened by the quota budget.
	cfg, ok = Options{
		Guard: &GuardOptions{Enabled: true, WatchdogFactor: 8},
		Quota: &Quota{InsnBudget: 99},
	}.GuardConfig()
	if !ok || cfg.WatchdogFactor != 8 || cfg.InsnBudget != 99 {
		t.Fatalf("guard+quota merge wrong: %+v", cfg)
	}
}

func TestUnderScopesAndRestores(t *testing.T) {
	prevTier, prevImpl := vm.DefaultTier(), maps.CurrentImpl()
	want, err := vm.ParseTier("jit")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Under(Options{Tier: "jit", MapImpl: "flat"}, func() (int, error) {
		if got := vm.DefaultTier(); got != want {
			t.Errorf("inside Under: tier %v, want jit", got)
		}
		if got := maps.CurrentImpl(); got != maps.ImplFlat {
			t.Errorf("inside Under: impl %v, want flat", got)
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if vm.DefaultTier() != prevTier || maps.CurrentImpl() != prevImpl {
		t.Fatalf("Under leaked: tier %v impl %v", vm.DefaultTier(), maps.CurrentImpl())
	}
}

func TestUnderMapBytesQuota(t *testing.T) {
	_, err := Under(Options{Quota: &Quota{MapBytes: 64}}, func() (maps.Map, error) {
		return maps.NewBucketHash(16, 8, 1024)
	})
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("map-bytes breach: err = %v, want ErrQuota", err)
	}
	// The same build fits an ample quota.
	m, err := Under(Options{Quota: &Quota{MapBytes: 1 << 24}}, func() (maps.Map, error) {
		return maps.NewBucketHash(16, 8, 1024)
	})
	if err != nil || m == nil {
		t.Fatalf("ample quota rejected: %v", err)
	}
}

func TestUnderRPoolQuota(t *testing.T) {
	_, err := Under(Options{Quota: &Quota{RPoolCap: 8}}, func() (*rpool.Pool, error) {
		return rpool.NewPool(1024, 1)
	})
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("rpool breach: err = %v, want ErrQuota", err)
	}
	if rpool.CapLimit() != 0 {
		t.Fatalf("rpool cap leaked: %d", rpool.CapLimit())
	}
	p, err := Under(Options{Quota: &Quota{RPoolCap: 2048}}, func() (*rpool.Pool, error) {
		return rpool.NewPool(1024, 1)
	})
	if err != nil || p == nil {
		t.Fatalf("fitting rpool rejected: %v", err)
	}
}

func TestUnderConcurrent(t *testing.T) {
	// Concurrent scoped builds must each observe their own settings —
	// the daemon creates modules from concurrent HTTP handlers.
	tiers := []string{"wire", "predecoded", "jit"}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := tiers[i%len(tiers)]
			want, _ := vm.ParseTier(name)
			_, err := Under(Options{Tier: name}, func() (int, error) {
				if got := vm.DefaultTier(); got != want {
					return 0, fmt.Errorf("goroutine %d: tier %v, want %v", i, got, want)
				}
				return 0, nil
			})
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
