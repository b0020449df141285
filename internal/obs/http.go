package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// NewMux builds the observability mux over a registry and tracer:
//
//	/metrics       — Prometheus-style text exposition
//	/debug/vars    — expvar JSON: every published var (memstats, cmdline)
//	                 plus carousel_metrics, this mux's own r.Snapshot(), so
//	                 muxes over different registries in one process each
//	                 serve their own numbers
//	/debug/pprof/  — the standard pprof handlers
//	/debug/traces  — recent finished spans as JSON (?trace=ID filters one
//	                 trace, ?tree=1 renders the indented stage tree,
//	                 ?since=30s keeps only spans that ended within the
//	                 duration, ?limit=N caps the result to the N newest)
func NewMux(r *Registry, t *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteText(w, r.Snapshot())
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, req *http.Request) {
		snap, _ := json.Marshal(r.Snapshot()) // maps of integers: cannot fail
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n%q: %s", "carousel_metrics", snap)
		expvar.Do(func(kv expvar.KeyValue) {
			fmt.Fprintf(w, ",\n%q: %s", kv.Key, kv.Value)
		})
		fmt.Fprint(w, "\n}\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, req *http.Request) {
		spans := traceSelection(t, req)
		if req.URL.Query().Get("tree") != "" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, TreeString(spans))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(spans)
	})
	return mux
}

func traceSelection(t *Tracer, req *http.Request) []SpanRecord {
	q := req.URL.Query()
	var spans []SpanRecord
	if ts := q.Get("trace"); ts != "" {
		if id, err := strconv.ParseUint(ts, 10, 64); err == nil {
			spans = t.Spans(id)
		}
	} else {
		max := 256
		if ns := q.Get("n"); ns != "" {
			if n, err := strconv.Atoi(ns); err == nil && n > 0 {
				max = n
			}
		}
		spans = t.Recent(max)
	}
	// ?since keeps spans that *ended* within the duration, so a scraper
	// polling a busy ring only pays for the new tail.
	if ss := q.Get("since"); ss != "" {
		if d, err := time.ParseDuration(ss); err == nil && d > 0 {
			cut := time.Now().Add(-d)
			kept := spans[:0:0]
			for _, s := range spans {
				if s.Start.Add(s.Duration).After(cut) {
					kept = append(kept, s)
				}
			}
			spans = kept
		}
	}
	// ?limit caps the result to the newest N (ring order is end order).
	if ls := q.Get("limit"); ls != "" {
		if n, err := strconv.Atoi(ls); err == nil && n >= 0 && len(spans) > n {
			spans = spans[len(spans)-n:]
		}
	}
	return spans
}

// Handler returns the mux over the process-wide default registry and
// tracer.
func Handler() http.Handler { return NewMux(Default(), DefaultTracer()) }

// Serve starts the default observability mux on addr (use host:0 for an
// ephemeral port) and returns the bound address plus a shutdown func. It
// is what blockserverd's -obs-addr and the tcpcluster example call.
func Serve(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}
