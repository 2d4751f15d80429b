package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"syncsim/internal/api"
	"syncsim/internal/chaos"
	"syncsim/internal/engine"
	"syncsim/internal/machine"
	"syncsim/internal/metrics"
	"syncsim/internal/workload/suite"
)

// TestClassifyTaxonomy pins the full error→HTTP-status mapping in one
// table: changing a status is an API break and must show up here.
func TestClassifyTaxonomy(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		status     int
		retryAfter bool
		incident   bool
	}{
		{"panic", engine.Recovered("job", "boom"), http.StatusInternalServerError, false, true},
		{"wrapped panic", fmt.Errorf("run: %w", engine.Recovered("job", "boom")), http.StatusInternalServerError, false, true},
		{"busy", errBusy, http.StatusTooManyRequests, true, false},
		{"body too large", &http.MaxBytesError{Limit: 16}, http.StatusRequestEntityTooLarge, false, false},
		{"unknown benchmark", fmt.Errorf("suite: %w %q", suite.ErrUnknownBenchmark, "Nope"), http.StatusBadRequest, false, false},
		{"bad request", fmt.Errorf("%w: negative scale", errBadRequest), http.StatusBadRequest, false, false},
		{"invalid machine config", fmt.Errorf("%w: %v", errBadRequest, errors.New("machine: unknown lock algorithm")), http.StatusBadRequest, false, false},
		{"invariant violation", fmt.Errorf("cycle 40: %w", machine.ErrInvariant), http.StatusUnprocessableEntity, false, false},
		{"no predict cell", fmt.Errorf("%w: Grav/queue", errNoModel), http.StatusUnprocessableEntity, false, false},
		{"wedged", fmt.Errorf("%w (no heartbeat)", errWedged), http.StatusGatewayTimeout, false, false},
		{"timeout", fmt.Errorf("machine: cancelled: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, false, false},
		{"cancelled", fmt.Errorf("machine: cancelled: %w", context.Canceled), http.StatusServiceUnavailable, true, false},
		{"unknown", errors.New("mystery"), http.StatusInternalServerError, false, false},
	}
	for _, tc := range cases {
		he := classify(tc.err)
		if he.status != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, he.status, tc.status)
		}
		if he.retryAfter != tc.retryAfter {
			t.Errorf("%s: retryAfter = %v, want %v", tc.name, he.retryAfter, tc.retryAfter)
		}
		if (he.incident != "") != tc.incident {
			t.Errorf("%s: incident = %q, want present=%v", tc.name, he.incident, tc.incident)
		}
		if tc.incident && (strings.Contains(he.msg, "boom") || strings.Contains(he.msg, "goroutine")) {
			t.Errorf("%s: public message leaks internals: %q", tc.name, he.msg)
		}
	}
}

// TestErrorTaxonomyOverHTTP drives the taxonomy end to end through the
// real handlers: each row provokes one failure class and pins the wire
// behaviour (status, Retry-After, incident header).
func TestErrorTaxonomyOverHTTP(t *testing.T) {
	leakCheck(t)

	// A tiny body cap for the 413 row; everything else fits comfortably.
	s := New(Config{Workers: 1, MaxBodyBytes: 256, ResultCacheSize: -1, Logf: t.Logf})
	defer s.Close()
	fail := make(chan error, 1)
	s.execTasks = func(ctx context.Context, tasks []engine.Task) ([]engine.TaskResult, metrics.SuiteReport, error) {
		select {
		case err := <-fail:
			if err != nil {
				return nil, metrics.SuiteReport{}, err
			}
			panic("injected handler panic")
		default:
			return []engine.TaskResult{{Result: &machine.Result{RunTime: 42}}}, metrics.SuiteReport{}, nil
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bigBody := `{"bench":"Qsort","lock":"` + strings.Repeat("x", 300) + `"}`
	cases := []struct {
		name     string
		body     string
		inject   error // non-nil: next execTasks returns it; nil+armed: panics
		arm      bool
		status   int
		incident bool
	}{
		{name: "unknown benchmark", body: `{"bench":"Nope"}`, status: http.StatusBadRequest},
		{name: "invalid machine config", body: `{"bench":"Qsort","lock":"mutex"}`, status: http.StatusBadRequest},
		{name: "unknown scheduler", body: `{"bench":"Qsort","sched":"speculative"}`, status: http.StatusBadRequest},
		{name: "negative workers", body: `{"bench":"Qsort","sched":"parallel","workers":-1}`, status: http.StatusBadRequest},
		{name: "body too large", body: bigBody, status: http.StatusRequestEntityTooLarge},
		{name: "invariant violation", body: `{"bench":"Qsort","scale":0.01,"seed":11}`,
			inject: fmt.Errorf("cycle 9: %w", machine.ErrInvariant), arm: true, status: http.StatusUnprocessableEntity},
		{name: "job timeout", body: `{"bench":"Qsort","scale":0.01,"seed":12}`,
			inject: fmt.Errorf("cancelled: %w", context.DeadlineExceeded), arm: true, status: http.StatusGatewayTimeout},
		{name: "panic", body: `{"bench":"Qsort","scale":0.01,"seed":13}`, arm: true,
			status: http.StatusInternalServerError, incident: true},
	}
	for _, tc := range cases {
		if tc.arm {
			fail <- tc.inject
		}
		resp, err := http.Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if got := resp.Header.Get("X-Incident-Id") != ""; got != tc.incident {
			t.Errorf("%s: incident header present = %v, want %v", tc.name, got, tc.incident)
		}
	}

	snap := s.reg.Snapshot()
	if snap.Counters["jobs_panicked"] != 1 {
		t.Errorf("jobs_panicked = %d, want 1", snap.Counters["jobs_panicked"])
	}
}

// TestChaosQueueFullPressure: the QueueFull fault point sheds load as a
// real 429 with a parseable adaptive Retry-After inside the bounds.
func TestChaosQueueFullPressure(t *testing.T) {
	leakCheck(t)
	plane := chaos.New(1)
	plane.Set(chaos.QueueFull, 1)
	s, _, gate := gatedServer(Config{Workers: 2, ResultCacheSize: -1, Chaos: plane})
	close(gate)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, resp := postSim(t, ts, `{"bench":"Qsort","scale":0.01}`)
	if resp == nil || resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 under chaos queue pressure", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < minRetryAfterSec || ra > maxRetryAfterSec {
		t.Errorf("Retry-After = %q, want an int in [%d, %d]",
			resp.Header.Get("Retry-After"), minRetryAfterSec, maxRetryAfterSec)
	}
}

// TestRetryAfterBounds pins the adaptive hint's bounds: for any queue
// pressure and any jitter draw, the hint stays within [1, 30] seconds,
// never decreases as pressure grows (at fixed jitter), and an idle queue
// suggests the minimum.
func TestRetryAfterBounds(t *testing.T) {
	for _, capDepth := range []int{-1, 0, 1, 64, 1024} {
		for _, queued := range []int{0, 1, capDepth / 2, capDepth, capDepth * 2, 1 << 20} {
			if queued < 0 {
				continue
			}
			for _, u := range []float64{0, 0.25, 0.5, 0.75, 0.999999} {
				got := retryAfterSeconds(queued, capDepth, u)
				if got < minRetryAfterSec || got > maxRetryAfterSec {
					t.Fatalf("retryAfterSeconds(%d, %d, %v) = %d, outside [%d, %d]",
						queued, capDepth, u, got, minRetryAfterSec, maxRetryAfterSec)
				}
			}
		}
	}
	if got := retryAfterSeconds(0, 64, 0); got != minRetryAfterSec {
		t.Errorf("idle queue, zero jitter: hint = %d, want %d", got, minRetryAfterSec)
	}
	prev := 0
	for q := 0; q <= 64; q += 8 {
		v := retryAfterSeconds(q, 64, 0.5)
		if v < prev {
			t.Errorf("hint not monotone in pressure: queued=%d gave %d after %d", q, v, prev)
		}
		prev = v
	}
	if empty, full := retryAfterSeconds(0, 64, 0.5), retryAfterSeconds(64, 64, 0.5); full <= empty {
		t.Errorf("saturated queue hint (%d) not above idle hint (%d)", full, empty)
	}
}

// TestHandlerRecoverer exercises the OUTER recover barrier — the one in
// Handler(), not the flight's. Poisoning the result cache with a value of
// the wrong type makes the handler's type assertion panic before any job
// runs; the middleware must still answer 500 + incident ID instead of
// tearing down the connection.
func TestHandlerRecoverer(t *testing.T) {
	leakCheck(t)
	s := New(Config{Workers: 1, Logf: t.Logf})
	defer s.Close()
	job, err := normalizeSim(api.SimRequest{Bench: "Qsort", Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	s.results.Put(job.key, "poison: not a *api.SimPayload")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sim", "application/json",
		strings.NewReader(`{"bench":"Qsort","scale":0.01}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 from the outer recover barrier", resp.StatusCode)
	}
	if resp.Header.Get("X-Incident-Id") == "" {
		t.Error("500 from the outer barrier missing X-Incident-Id")
	}

	// The server is still serviceable: the next (different) request works.
	_, ok := postSim(t, ts, `{"bench":"Qsort","scale":0.01,"seed":3}`)
	if ok == nil || ok.StatusCode != http.StatusOK {
		t.Fatalf("server unserviceable after recovered handler panic")
	}
}
