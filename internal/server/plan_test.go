package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"syncsim/internal/api"
	"syncsim/internal/core"
	"syncsim/internal/fleet/store"
	"syncsim/internal/machine"
	"syncsim/internal/workload/suite"
)

// TestPlanMatchesCoreModels pins plan.go's model → lock/cons wire mapping
// against core.Model.MachineConfig: a cell request built from modelWire
// must normalise to the exact machine.Config the sweep path hands the
// engine for that model. If core ever changes a model's configuration,
// this fails before the fleet starts returning subtly different sweeps.
func TestPlanMatchesCoreModels(t *testing.T) {
	coreModels := map[string]core.Model{
		"queue": core.ModelQueue,
		"tts":   core.ModelTTS,
		"wo":    core.ModelWO,
	}
	if len(coreModels) != len(modelWire) {
		t.Fatalf("modelWire has %d entries, core has %d models", len(modelWire), len(coreModels))
	}
	for name, m := range coreModels {
		w, ok := modelWire[name]
		if !ok {
			t.Fatalf("modelWire missing %q", name)
		}
		job, err := normalizeSim(api.SimRequest{Bench: "Qsort", Lock: w.lock, Cons: w.cons})
		if err != nil {
			t.Fatalf("model %s: %v", name, err)
		}
		want := m.MachineConfig(machine.DefaultConfig())
		if !reflect.DeepEqual(job.cfg, want) {
			t.Errorf("model %s: planned config %+v != core config %+v", name, job.cfg, want)
		}
	}
}

// TestPlanSweepGrid: the plan expands to the suite × model grid in the
// exact order core's runMatrix enumerates, every model of one benchmark
// shares the benchmark's trace routing key, and the sweep/cell cache keys
// are the very strings the server's own normalisation produces.
func TestPlanSweepGrid(t *testing.T) {
	plan, err := PlanSweep(api.SweepRequest{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	benches := suite.Names()
	models := []string{"queue", "tts", "wo"}
	if want := len(benches) * len(models); len(plan.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(plan.Cells), want)
	}
	job, err := normalizeSweep(api.SweepRequest{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Key != job.key {
		t.Errorf("plan key %q != server sweep key %q", plan.Key, job.key)
	}
	if plan.Params.Scale != 0.05 || plan.Params.Seed != 7 || plan.Params.NCPU != 0 {
		t.Errorf("plan params = %+v, want scale 0.05 seed 7 ncpu 0", plan.Params)
	}
	i := 0
	for _, b := range benches {
		var route *SimPlan
		for _, m := range models {
			cell := plan.Cells[i]
			i++
			if cell.Bench != b || cell.Model != m {
				t.Fatalf("cell %d = %s/%s, want %s/%s", i-1, cell.Bench, cell.Model, b, m)
			}
			// The cell's key must equal the sim key the backend itself
			// would derive for the forwarded request.
			sj, err := normalizeSim(cell.Plan.Request)
			if err != nil {
				t.Fatal(err)
			}
			if cell.Plan.Key != sj.key {
				t.Errorf("cell %s/%s key %q != normalised key %q", b, m, cell.Plan.Key, sj.key)
			}
			if route == nil {
				p := cell.Plan
				route = &p
			} else if cell.Plan.Route != route.Route {
				t.Errorf("cell %s/%s route %+v != benchmark route %+v — models must stay node-local",
					b, m, cell.Plan.Route, route.Route)
			}
			if cell.Plan.Route.Workload != b {
				t.Errorf("cell %s/%s route workload = %q", b, m, cell.Plan.Route.Workload)
			}
		}
	}
}

// TestStoreSharedBetweenServers: the L2 seam. A sim and a sweep computed
// by one server are served by a second server over the same store
// directory as "store", payload-identical, without running anything.
func TestStoreSharedBetweenServers(t *testing.T) {
	disk, err := store.OpenDisk(filepath.Join(t.TempDir(), "l2"))
	if err != nil {
		t.Fatal(err)
	}
	newSrv := func() (*Server, *httptest.Server) {
		s := New(Config{Workers: 2, Store: disk})
		t.Cleanup(s.Close)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return s, ts
	}
	_, tsA := newSrv()
	_, tsB := newSrv()

	simBody := `{"bench":"Qsort","scale":0.01,"seed":3}`
	a, resp := postSim(t, tsA, simBody)
	if resp == nil || resp.StatusCode != http.StatusOK || a.Served != "run" {
		t.Fatalf("server A: served %q status %v", a.Served, resp)
	}
	b, _ := postSim(t, tsB, simBody)
	if b.Served != "store" {
		t.Fatalf("server B served = %q, want store", b.Served)
	}
	aj, _ := json.Marshal(a.SimPayload)
	bj, _ := json.Marshal(b.SimPayload)
	if string(aj) != string(bj) {
		t.Errorf("payloads differ:\nA: %s\nB: %s", aj, bj)
	}
	// Promotion into L1: the next identical request on B is a cache hit.
	again, _ := postSim(t, tsB, simBody)
	if again.Served != "cache" {
		t.Errorf("server B repeat served = %q, want cache (store hit should promote)", again.Served)
	}

	sweepBody := `{"scale":0.01,"seed":3,"only":["Qsort"]}`
	postSweep := func(ts *httptest.Server) api.SweepResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(sweepBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep status %d: %s", resp.StatusCode, raw)
		}
		var out api.SweepResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	sa := postSweep(tsA)
	if sa.Served != "run" {
		t.Fatalf("sweep on A served = %q, want run", sa.Served)
	}
	sb := postSweep(tsB)
	if sb.Served != "store" {
		t.Fatalf("sweep on B served = %q, want store", sb.Served)
	}
}

// TestTenantCounters: X-Tenant headers become bounded per-tenant request
// counters on /metrics; hostile header values are sanitised.
func TestTenantCounters(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(tenant string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sim",
			strings.NewReader(`{"bench":"Qsort","scale":0.01,"seed":3}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set(api.HeaderTenant, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	post("acme")
	post("acme")
	post("Evil Tenant/../{}")
	post("") // no header: counted nowhere

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.Counters["tenant_requests_acme"]; got != 2 {
		t.Errorf("tenant_requests_acme = %d, want 2", got)
	}
	if got := doc.Counters["tenant_requests_evil_tenant______"]; got != 1 {
		for k := range doc.Counters {
			if strings.HasPrefix(k, "tenant_requests_") {
				t.Logf("counter %q", k)
			}
		}
		t.Errorf("sanitised tenant counter = %d, want 1", got)
	}
	for k := range doc.Counters {
		if strings.HasPrefix(k, "tenant_requests_") && k != "tenant_requests_acme" && k != "tenant_requests_evil_tenant______" {
			t.Errorf("unexpected tenant counter %q", k)
		}
	}
}

// TestSanitizeTenant pins the slug rules: lowercase, [a-z0-9_-] only,
// 32-byte cap.
func TestSanitizeTenant(t *testing.T) {
	cases := map[string]string{
		"":                      "",
		"  ":                    "",
		"Acme":                  "acme",
		"a b":                   "a_b",
		"ü":                     "_", // one rune, one replacement
		"tenant-1":              "tenant-1",
		strings.Repeat("x", 50): strings.Repeat("x", 32),
	}
	for in, want := range cases {
		if got := sanitizeTenant(in); got != want {
			t.Errorf("sanitizeTenant(%q) = %q, want %q", in, got, want)
		}
	}
}
