package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"syncsim/internal/api"
	"syncsim/internal/fleet/store"
	"syncsim/internal/metrics"
	"syncsim/internal/server"
)

// spanHeader carries "<request id>/<span id>" of the HTTP round trip to
// the handler it reaches, so the handler's span names the round trip as
// its parent. The program ignores the header.
const spanHeader = "X-Perfbench-Span"

// transport is the benchmark's http.RoundTripper, passed to the program
// through client.Config.HTTPClient. It always counts answers by status;
// with a recorder it also records an "http.roundtrip" span from the
// request until the response body is closed, parented by the span in the
// request's context, and forwards its own span id in spanHeader.
type transport struct {
	base   http.RoundTripper
	rec    *Recorder
	keyed  bool // record the SimRequest job key (for parentage by key)
	status [600]atomic.Int64
}

// newTransport returns a transport over a dedicated copy of
// http.DefaultTransport — what the program's clients use when given no
// HTTP client — limited to conns connections per host when conns > 0.
func newTransport(rec *Recorder, conns int, keyed bool) *transport {
	base := http.DefaultTransport.(*http.Transport).Clone()
	if conns > 0 {
		base.MaxConnsPerHost = conns
		base.MaxIdleConnsPerHost = conns
	}
	return &transport{base: base, rec: rec, keyed: keyed}
}

// client returns an http.Client over the transport.
func (t *transport) client() *http.Client { return &http.Client{Transport: t} }

// count returns how many answers had the given status.
func (t *transport) count(status int) int64 { return t.status[status].Load() }

// close releases the transport's idle connections.
func (t *transport) close() { t.base.(*http.Transport).CloseIdleConnections() }

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.rec == nil {
		resp, err := t.base.RoundTrip(req)
		if err == nil && resp.StatusCode > 0 && resp.StatusCode < len(t.status) {
			t.status[resp.StatusCode].Add(1)
		}
		return resp, err
	}
	parent := spanFrom(req.Context())
	out := req.Clone(req.Context())
	var key string
	if t.keyed && req.Body != nil {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		out.Body = io.NopCloser(bytes.NewReader(body))
		key = simKey(body)
	}
	id := t.rec.Begin("http.roundtrip", parent.id, parent.req)
	t.rec.Annotate(id, "", key, nil)
	out.Header.Set(spanHeader, fmt.Sprintf("%d/%d", parent.req, id))
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		t.rec.Finish(id)
		return nil, err
	}
	if resp.StatusCode > 0 && resp.StatusCode < len(t.status) {
		t.status[resp.StatusCode].Add(1)
	}
	resp.Body = &finishOnClose{ReadCloser: resp.Body, finish: func() { t.rec.Finish(id) }}
	return resp, nil
}

// finishOnClose ends a span when the response body is closed, so the
// round trip covers the body transfer as well as the headers.
type finishOnClose struct {
	io.ReadCloser
	finish func()
	done   atomic.Bool
}

func (f *finishOnClose) Close() error {
	err := f.ReadCloser.Close()
	if f.done.CompareAndSwap(false, true) {
		f.finish()
	}
	return err
}

// simKey returns the server's job key of a /v1/sim body, or "" if the body
// is not a valid SimRequest.
func simKey(body []byte) string {
	var req api.SimRequest
	if json.Unmarshal(body, &req) != nil {
		return ""
	}
	plan, err := server.PlanSim(req)
	if err != nil {
		return ""
	}
	return plan.Key
}

// sweepKeys returns the cell job keys a /v1/sweep body fans out to.
func sweepKeys(body []byte) []string {
	var req api.SweepRequest
	if json.Unmarshal(body, &req) != nil {
		return nil
	}
	plan, err := server.PlanSweep(req)
	if err != nil {
		return nil
	}
	keys := make([]string, len(plan.Cells))
	for i, c := range plan.Cells {
		keys[i] = c.Plan.Key
	}
	return keys
}

// middleware wraps a program handler (Server.Handler or
// Coordinator.Handler) in a span named name, parented by the round trip
// named in spanHeader. For sim and predict answers that ran the engine it
// adds the engine's phases, which the payload's report times, as child
// spans (see addEnginePhases).
type middleware struct {
	rec  *Recorder
	name string
	node string
	next http.Handler
	work *engineWork // nil on handlers that do not run the engine
}

// engineWork sums the simulator work of the answers a server ran itself.
type engineWork struct {
	cycles, steps, iters atomic.Uint64
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req uint64
	var parent int
	fmt.Sscanf(r.Header.Get(spanHeader), "%d/%d", &req, &parent) //nolint:errcheck // absent header: a root span
	var key string
	var keys []string
	if r.Method == http.MethodPost && r.Body != nil {
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err == nil {
			r.Body = io.NopCloser(bytes.NewReader(body))
			switch r.URL.Path {
			case "/v1/sim":
				key = simKey(body)
			case "/v1/sweep":
				keys = sweepKeys(body)
			}
		}
	}
	start := time.Now()
	id := m.rec.Begin(m.name, parent, req)
	m.rec.Annotate(id, m.node, key, keys)
	if m.work == nil {
		m.next.ServeHTTP(w, r)
		m.rec.Finish(id)
		return
	}
	rw := &captureWriter{ResponseWriter: w}
	m.next.ServeHTTP(rw, r)
	m.rec.Finish(id)
	if rw.status/100 == 2 {
		addEnginePhases(m.rec, m.work, id, req, m.node, start, rw.buf.Bytes())
	}
}

// captureWriter keeps a copy of the response for addEnginePhases.
type captureWriter struct {
	http.ResponseWriter
	status int
	buf    bytes.Buffer
}

func (c *captureWriter) WriteHeader(status int) {
	c.status = status
	c.ResponseWriter.WriteHeader(status)
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	c.buf.Write(p)
	return c.ResponseWriter.Write(p)
}

// addEnginePhases adds, under a handler span that ran a simulation itself
// (served "run"), an "engine.task" span of the engine's wall time with the
// "workload.generate", "trace.ideal" and "machine.run" phases inside it.
// The durations are the engine's own (the payload's RunReport); their
// placement inside the handler span is nominal — from the handler's start,
// in phase order — which leaves every self time exact because the phases
// run one after another inside the task.
func addEnginePhases(rec *Recorder, work *engineWork, handler int, req uint64, node string, start time.Time, body []byte) {
	var doc struct {
		Served string             `json:"served"`
		Report *metrics.RunReport `json:"report"`
		Sim    *struct {
			Report metrics.RunReport `json:"report"`
		} `json:"sim"`
	}
	if json.Unmarshal(body, &doc) != nil || doc.Served != "run" {
		return
	}
	rep := doc.Report
	if doc.Sim != nil {
		rep = &doc.Sim.Report
	}
	if rep == nil || rep.Wall <= 0 {
		return
	}
	work.cycles.Add(rep.SimCycles)
	work.steps.Add(rep.SchedSteps)
	work.iters.Add(rep.SchedIters)
	at := rec.Since(start)
	task := rec.Add(Span{Parent: handler, Req: req, Node: node, Name: "engine.task", Start: at, End: at + rep.Wall})
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"workload.generate", rep.Generate}, {"trace.ideal", rep.Analyze}, {"machine.run", rep.Simulate}} {
		if ph.d <= 0 {
			continue
		}
		rec.Add(Span{Parent: task, Req: req, Node: node, Name: ph.name, Start: at, End: at + ph.d})
		at += ph.d
	}
}

// tracedStore is the benchmark's store.Store decorator, passed in the
// servers' Store config: it counts lookups and hits and times every Get
// and Put, recording "store.get"/"store.put" spans when tracing. The Store
// interface carries no context, so the spans are parented afterwards by
// job key and time (resolveByKey).
type tracedStore struct {
	st   store.Store
	rec  *Recorder
	node string

	gets, hits, puts atomic.Int64
	getNS, putNS     atomic.Int64
}

func (s *tracedStore) Get(key string) ([]byte, bool) {
	id := s.rec.Begin("store.get", 0, 0)
	s.rec.Annotate(id, s.node, key, nil)
	t0 := time.Now()
	blob, ok := s.st.Get(key)
	s.getNS.Add(int64(time.Since(t0)))
	s.rec.Finish(id)
	s.gets.Add(1)
	if ok {
		s.hits.Add(1)
	}
	return blob, ok
}

func (s *tracedStore) Put(key string, blob []byte) {
	id := s.rec.Begin("store.put", 0, 0)
	s.rec.Annotate(id, s.node, key, nil)
	t0 := time.Now()
	s.st.Put(key, blob)
	s.putNS.Add(int64(time.Since(t0)))
	s.rec.Finish(id)
	s.puts.Add(1)
}
