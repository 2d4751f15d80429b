package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"syncsim/internal/api"
	"syncsim/internal/predict"
	"syncsim/internal/server"
)

// endpoint is one request a client may send after discovery.
type endpoint struct{ method, path, body string }

// advertised lists every endpoint a node's capabilities answer promises:
// the job surface its vocabulary describes, plus predict and analyze when
// the answer advertises them.
func advertised(caps api.CapabilitiesResponse) []endpoint {
	eps := []endpoint{
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/v1/capabilities", ""},
		{http.MethodPost, "/v1/sim", `{"bench":"Topopt","scale":0.01}`},
		{http.MethodPost, "/v1/sweep", `{"scale":0.01,"only":["Topopt"],"models":["queue"]}`},
	}
	if caps.Predict != nil {
		eps = append(eps, endpoint{http.MethodPost, "/v1/predict", `{"bench":"Qsort","model":"queue","scale":0.012}`})
	}
	if caps.Analyze != nil {
		eps = append(eps, endpoint{http.MethodPost, "/v1/analyze", `{"bench":"Topopt","scale":0.01,"ncpu":4}`})
	}
	return eps
}

// TestAdvertisedEndpointsAnswer is the discovery contract: on a syncsimd
// and on a coordinator in front of one, every endpoint the node's
// /v1/capabilities advertises is routed — none answers 404 or 405.
func TestAdvertisedEndpointsAnswer(t *testing.T) {
	// A fitted model makes the backend advertise predict, which the
	// coordinator must not pass on: it does not route /v1/predict.
	model := &predict.Model{
		Version: predict.ModelVersion,
		Scales:  []float64{0.01, 0.02},
		Seeds:   []int64{1, 2},
		Cells: map[string]*predict.Cell{
			"Qsort/queue": {
				Bench: "Qsort", Model: "queue", NCPU: 12,
				Work:      predict.LinFit{B: 2.2e8},
				MissStall: predict.LinFit{B: 1.5e7},
				BusBusy:   predict.LinFit{B: 1.2e9},
				Transfers: predict.LinFit{B: 6e4},
				Straggler: 1.15,
				MaxErr:    0.01, MeanErr: 0.005, ErrBound: 0.05,
			},
		},
	}
	b := startBackend(t, server.Config{Workers: 2, Predict: model}, nil)
	coord, err := New(Config{Backends: []string{b.url}, Pool: fastPool(), HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	for _, node := range []struct {
		name, url                string
		wantPredict, wantAnalyze bool
	}{
		{"syncsimd", b.url, true, true},
		{"coordinator", cts.URL, false, false},
	} {
		t.Run(node.name, func(t *testing.T) {
			resp, err := http.Get(node.url + "/v1/capabilities")
			if err != nil {
				t.Fatal(err)
			}
			var caps api.CapabilitiesResponse
			err = json.NewDecoder(resp.Body).Decode(&caps)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if (caps.Predict != nil) != node.wantPredict || (caps.Analyze != nil) != node.wantAnalyze {
				t.Errorf("advertises predict=%t analyze=%t, want %t and %t",
					caps.Predict != nil, caps.Analyze != nil, node.wantPredict, node.wantAnalyze)
			}
			for _, ep := range advertised(caps) {
				req, err := http.NewRequest(ep.method, node.url+ep.path, strings.NewReader(ep.body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatalf("%s %s: %v", ep.method, ep.path, err)
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed {
					t.Errorf("%s %s is advertised but answers %d: %s", ep.method, ep.path, resp.StatusCode, raw)
				}
			}
		})
	}
}
