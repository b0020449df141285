package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestMuxEndpoints drives the three endpoint surfaces the tentpole
// promises: /metrics text, /debug/vars expvar JSON, /debug/pprof, and the
// span dump.
func TestMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(64)
	r.Counter("demo_total").Add(4)
	_, s := tr.Start(nil, "demo.read")
	s.End()

	srv := httptest.NewServer(NewMux(r, tr))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "demo_total 4") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars: code=%d body=%.80q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code=%d body=%.80q", code, body)
	}
	if code, body := get("/debug/traces"); code != 200 || !strings.Contains(body, "demo.read") {
		t.Fatalf("/debug/traces: code=%d body=%q", code, body)
	}
	if code, body := get("/debug/traces?tree=1"); code != 200 || !strings.Contains(body, "demo.read") {
		t.Fatalf("/debug/traces?tree=1: code=%d body=%q", code, body)
	}
}

// varsMetrics GETs a mux's /debug/vars and decodes its carousel_metrics —
// the path carouselctl stats takes.
func varsMetrics(t *testing.T, url string) *Snapshot {
	t.Helper()
	resp, err := http.Get(url + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Metrics *Snapshot `json:"carousel_metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.Metrics == nil {
		t.Fatal("/debug/vars lacks carousel_metrics")
	}
	return vars.Metrics
}

// TestScrapeRoundTrip scrapes a served /debug/vars page back into the
// registry's snapshot.
func TestScrapeRoundTrip(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(16)
	r.Counter("scrape_total", "node", "0").Add(9)
	r.Histogram("scrape_ns").Observe(12345)
	srv := httptest.NewServer(NewMux(r, tr))
	defer srv.Close()
	snap := varsMetrics(t, srv.URL)
	if snap.Counters[`scrape_total{node="0"}`] != 9 {
		t.Fatalf("scraped counters: %v", snap.Counters)
	}
	if h := snap.Histograms["scrape_ns"]; h.Count != 1 || h.Sum != 12345 {
		t.Fatalf("scraped histogram: %+v", h)
	}
	if want := r.Snapshot(); !reflect.DeepEqual(snap, want) {
		t.Fatalf("scraped %+v, registry holds %+v", snap, want)
	}
}

// TestVarsServeTheMuxRegistry: two muxes over two registries in one
// process each serve their own registry in /debug/vars, as /metrics does.
func TestVarsServeTheMuxRegistry(t *testing.T) {
	regA, regB := NewRegistry(), NewRegistry()
	regA.Counter("vars_a_total").Add(3)
	regB.Counter("vars_b_total").Add(5)
	srvA := httptest.NewServer(NewMux(regA, NewTracer(16)))
	defer srvA.Close()
	srvB := httptest.NewServer(NewMux(regB, NewTracer(16)))
	defer srvB.Close()
	for _, c := range []struct {
		url         string
		mine, other string
		v           int64
	}{{srvA.URL, "vars_a_total", "vars_b_total", 3}, {srvB.URL, "vars_b_total", "vars_a_total", 5}} {
		snap := varsMetrics(t, c.url)
		if _, leaked := snap.Counters[c.other]; snap.Counters[c.mine] != c.v || leaked {
			t.Errorf("%s/debug/vars serves %v, want its own %s = %d only", c.url, snap.Counters, c.mine, c.v)
		}
	}
}

// TestServe binds an ephemeral port and closes cleanly.
func TestServe(t *testing.T) {
	addr, closeFn, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
}
