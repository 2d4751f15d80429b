package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"syncsim/internal/api"
)

func postAnalyze(t *testing.T, ts *httptest.Server, body string) (api.AnalyzeResponse, *http.Response) {
	t.Helper()
	var out api.AnalyzeResponse
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("POST /v1/analyze: %v", err)
		return out, nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("read body: %v", err)
		return out, resp
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Errorf("decode %q: %v", raw, err)
		}
	}
	return out, resp
}

// The full HTTP round trip of the what-if endpoint: a TTS baseline must
// come back with its determinism proof, every requested perturbation, and
// the lock=queue flag the paper predicts. A repeat of the identical
// request must be served from the result cache. The workload is the
// smallest that still flags lock=queue (Grav at its size floor, two
// processors), so the test stays far from the default job timeout even
// under the race detector; the paper's canonical Qsort case is pinned
// in-process by replay.TestAnalyzeFlagsTTSQsort.
func TestEndToEndAnalyze(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"bench":"Grav","scale":0.001,"ncpu":2,"seed":1,"lock":"tts"}`
	got, resp := postAnalyze(t, ts, body)
	if resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %v", resp)
	}
	if got.Served != "run" {
		t.Fatalf("served = %q, want run", got.Served)
	}
	if !got.ReplayIdentical {
		t.Fatal("baseline replay not bit-identical over HTTP")
	}
	if len(got.Perturbations) != 5 {
		t.Fatalf("perturbations = %d, want 5", len(got.Perturbations))
	}
	found := false
	for _, f := range got.Flagged {
		if f.Variant == "lock=queue" {
			found = true
		}
	}
	if !found {
		t.Fatalf("lock=queue not among flagged variants: %+v", got.Flagged)
	}

	again, _ := postAnalyze(t, ts, body)
	if again.Served != "cache" {
		t.Fatalf("repeat served = %q, want cache", again.Served)
	}
	if again.BaselineRunTime != got.BaselineRunTime {
		t.Fatal("cached payload differs from original")
	}
}

func TestAnalyzeValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{}`, // missing bench
		`{"bench":"Qsort","perturb":["nope"]}`,
		`{"bench":"Qsort","threshold":1.5}`,
		`{"bench":"Qsort","lock":"bogus"}`,
	} {
		_, resp := postAnalyze(t, ts, body)
		if resp == nil || resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %v, want 400", body, resp.StatusCode)
		}
	}
}

// Capabilities must advertise the analyze vocabulary.
func TestCapabilitiesAdvertiseAnalyze(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/capabilities")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var caps api.CapabilitiesResponse
	if err := json.NewDecoder(resp.Body).Decode(&caps); err != nil {
		t.Fatal(err)
	}
	if caps.Analyze == nil {
		t.Fatal("capabilities missing analyze")
	}
	if len(caps.Analyze.Perturbations) != 3 || caps.Analyze.DefaultThreshold != 0.5 {
		t.Fatalf("analyze capability = %+v", caps.Analyze)
	}
}
