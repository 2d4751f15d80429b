package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"syncsim/internal/api"
	"syncsim/internal/server"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed, so tail must sort
	}
	return xs
}

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		pct   float64
		value float64
	}{
		{n: 10000, pct: 99.9, value: 9990},
		{n: 1000, pct: 99, value: 990}, // 10 samples beyond the 990th
		{n: 999, pct: 90, value: 900},  // p99 would leave only 9 beyond
		{n: 100, pct: 90, value: 90},
		{n: 40, pct: 75, value: 30},
		{n: 20, pct: 50, value: 10},
		{n: 19, pct: 0},
		{n: 0, pct: 0},
	} {
		got := tail(seq(tc.n))
		if got.Pct != tc.pct || got.N != tc.n || (tc.pct > 0 && got.Value != tc.value) {
			t.Errorf("tail(n=%d) = %+v, want p%g = %g with n=%d", tc.n, got, tc.pct, tc.value, tc.n)
		}
	}
	if got := percentileOrNaN(seq(1000), 99); got != 990 {
		t.Errorf("p99 of 1000 = %g, want 990", got)
	}
	if got := percentileOrNaN(seq(999), 99); !math.IsNaN(got) {
		t.Errorf("p99 of 999 = %g, want NaN (only 9 samples beyond)", got)
	}
}

func span(id, parent int, name string, start, end int) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: time.Duration(start), End: time.Duration(end)}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, "bench.op", 0, 100),
		span(2, 1, "http.roundtrip", 10, 40),
		span(3, 1, "http.roundtrip", 30, 60),  // overlaps 2: union 10..60
		span(4, 1, "http.roundtrip", 80, 120), // outlives the parent: clipped to 80..100
		span(5, 2, "server.handler", 15, 35),
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 30, 2: 10, 3: 30, 4: 40, 5: 20} {
		if self[id] != want {
			t.Errorf("self(%d) = %d, want %d", id, self[id], want)
		}
	}

	a := account(spans)
	if a.Roots != 100 {
		t.Fatalf("roots = %d, want 100", a.Roots)
	}
	// 0..10 bench; 10..15 rt2; 15..30 handler; 30..35 handler and rt3
	// split; 35..40 rt2 and rt3 split; 40..60 rt3; 60..80 bench; 80..100
	// rt4. Halving the 5ns overlaps rounds each half down to 2ns.
	want := map[string]time.Duration{"bench": 30, "server": 15 + 2, "http": 5 + 2 + 2 + 2 + 20 + 20}
	var total time.Duration
	for l, d := range a.Time {
		total += d
		if d != want[l] {
			t.Errorf("time[%s] = %d, want %d", l, d, want[l])
		}
	}
	if total > a.Roots || a.Roots-total > 2 {
		t.Errorf("attributed %d of %d root time", total, a.Roots)
	}
	if got := a.UnattributedFrac(); got != 0.3 {
		t.Errorf("unattributed = %g, want 0.3", got)
	}
}

func TestResolveByKeyPicksEarliestContainingCaller(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "fleet.handler", Keys: []string{"a", "b"}, Start: 0, End: 100},
		{ID: 2, Name: "fleet.handler", Keys: []string{"a"}, Start: 5, End: 100},
		{ID: 3, Name: "fleet.handler", Keys: []string{"c"}, Start: 0, End: 100},
		{ID: 4, Name: "http.roundtrip", Key: "a", Start: 10, End: 20},
		{ID: 5, Name: "http.roundtrip", Key: "b", Start: 90, End: 110}, // outlives its caller
	}
	resolveByKey(spans, "http.roundtrip", "fleet.handler", false)
	if spans[3].Parent != 1 {
		t.Errorf("round trip a parented to %d, want 1 (the earliest caller containing it)", spans[3].Parent)
	}
	if spans[4].Parent != 0 {
		t.Errorf("round trip b parented to %d, want none", spans[4].Parent)
	}
}

func TestSameSeedGivesSameRequestStream(t *testing.T) {
	a, b, c := newServeStream(7, 60), newServeStream(7, 60), newServeStream(8, 60)
	differs := false
	kinds := map[int]int{}
	for i := uint64(0); i < 2000; i++ {
		if a.at(i) != b.at(i) {
			t.Fatalf("request %d differs between two streams of seed 7", i)
		}
		if a.at(i) != c.at(i) {
			differs = true
		}
		kinds[a.at(i).kind]++
	}
	if !differs {
		t.Error("seeds 7 and 8 gave the same serve-mixed stream")
	}
	if kinds[kindSim] == 0 || kinds[kindAnalytic] == 0 || kinds[kindAuto] == 0 {
		t.Errorf("stream lacks a request kind: %v", kinds)
	}
	space := len(fleetSpace())
	differs = false
	for i := uint64(0); i < 2000; i++ {
		if fleetStream(7, i, space) != fleetStream(7, i, space) {
			t.Fatalf("sweep %d differs between two streams of seed 7", i)
		}
		if fleetStream(7, i, space) != fleetStream(8, i, space) {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 gave the same fleet-sweep stream")
	}
	if paperInput(7, 0) != paperInput(7, 0) || paperInput(7, 0) == paperInput(8, 0) {
		t.Error("paper-tables inputs do not follow the seed")
	}
	for i := 0; i < 2*paperInputs; i++ {
		if in := paperInput(-3, i); in < 1 || in > paperInputs {
			t.Fatalf("paperInput(-3, %d) = %d, outside the references", i, in)
		}
	}
}

func TestPaperCheckRejectsTamperedOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full paper-tables suite")
	}
	refs, err := loadPaperRefs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	outs, text, _, _, err := paperSuite(context.Background(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := checkSuite(refs, 1, outs, text); len(d) != 0 {
		t.Fatalf("untampered suite fails its check: %v", d)
	}
	if d := checkSuite(refs, 1, outs, text+" "); len(d) == 0 {
		t.Error("a tampered table text passed the check")
	}
	for _, res := range outs[2].Results {
		res.Locks.Transfers++
		break
	}
	if d := checkSuite(refs, 1, outs, text); len(d) == 0 {
		t.Error("a tampered cell statistic passed the check")
	}
}

func TestServeCheckRejectsTamperedAnswer(t *testing.T) {
	req := api.SimRequest{Bench: "Grav", Scale: serveScale, Seed: 1, Lock: "queue", Cons: "sc"}
	plan, err := server.PlanSim(req)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Workers: 1, Logf: discardLogf})
	defer srv.Close()
	body, _ := json.Marshal(req)
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/sim", bytes.NewReader(body)))
	decode := func() *api.SimPayload {
		var resp api.SimResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.SimPayload
	}

	c := newAnswerCheck()
	if !c.add(plan.Key, req, decode()) || !c.add(plan.Key, req, decode()) {
		t.Fatal("equal answers rejected")
	}
	tampered := decode()
	tampered.Result.RunTime++
	if c.add(plan.Key, req, tampered) {
		t.Error("an answer differing from the first was accepted")
	}
	wrong, err := c.verify(context.Background(), 1)
	if err != nil || len(wrong) != 0 {
		t.Fatalf("verify of a true answer: %v, %v", wrong, err)
	}

	c = newAnswerCheck()
	c.add(plan.Key, req, tampered)
	if wrong, err := c.verify(context.Background(), 1); err != nil || !wrong[plan.Key] {
		t.Errorf("a first answer differing from the engine passed verify: %v, %v", wrong, err)
	}
}

func TestFleetCheckRejectsTamperedSweep(t *testing.T) {
	refs, err := loadFleetRefs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	req := fleetSpace()[0]
	plan, err := server.PlanSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Workers: 1, Logf: discardLogf})
	defer srv.Close()
	body, _ := json.Marshal(req)
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
	decode := func() *api.SweepResponse {
		var resp api.SweepResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return &resp
	}
	if got, err := sweepDigest(decode()); err != nil || got != refs[plan.Key] {
		t.Fatalf("single-node sweep digest %s (%v), reference %s", got, err, refs[plan.Key])
	}
	tampered := decode()
	for _, res := range tampered.Outcomes[0].Results {
		res.Bus.BusyCycles++
		break
	}
	if got, _ := sweepDigest(tampered); got == refs[plan.Key] {
		t.Error("a tampered sweep matched the single-node reference")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	eq := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	eq("end_to_end", doc.EndToEnd, endToEnd)
	eq("per_layer", doc.PerLayer, perLayer)
}

// TestRunPrintsContractResult runs a short serve-mixed run end to end and
// checks the last output line.
func TestRunPrintsContractResult(t *testing.T) {
	for _, traced := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "serve-mixed", "--seed", "3", "--seconds", "1", "--trace", traced,
			"--data", "testdata", "--scratch", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", traced, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", traced, err)
		}
		defs := endToEnd
		if traced == "1" {
			defs = perLayer
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
			t.Errorf("trace %s: result %+v", traced, res)
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", traced, d.Name, m, d.Unit)
			}
		}
	}
}
