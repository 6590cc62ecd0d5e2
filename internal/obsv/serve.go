package obsv

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// expvarOnce guards expvar.Publish, which panics on duplicate names: tests
// (and a binary that restarts its debug server) re-publish the same name.
var (
	expvarMu        sync.Mutex
	expvarPublished = map[string]*Registry{}
)

// publishExpvar exposes the registry's snapshot as the named expvar, so it
// appears under /debug/vars alongside memstats and cmdline. Re-publishing a
// name re-targets the existing var at the new registry.
func publishExpvar(name string, r *Registry) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if _, ok := expvarPublished[name]; !ok {
		n := name
		expvar.Publish(n, expvar.Func(func() any {
			expvarMu.Lock()
			reg := expvarPublished[n]
			expvarMu.Unlock()
			return reg.Snapshot()
		}))
	}
	expvarPublished[name] = r
}

// ServeText answers with the registry's snapshot as the text table — the
// /metrics view of the debug server and of both HTTP services. Like every
// Registry method it is nil-safe (an empty snapshot).
func (r *Registry) ServeText(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, r.Snapshot().Text())
}

// ServeJSON is ServeText's /metrics.json twin.
func (r *Registry) ServeJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(r.Snapshot().JSON())
}

// Serve starts the opt-in debug HTTP server behind every binary's
// -debug-addr flag: net/http/pprof under /debug/pprof/, expvar under
// /debug/vars (with the registry published as the named var), the
// snapshot as text under /metrics and as JSON under /metrics.json.
//
// It returns the bound address (useful with ":0") and a shutdown func.
// The server runs until shutdown; a nil registry serves pprof/expvar only,
// with empty metrics endpoints.
func Serve(name, addr string, r *Registry) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obsv: listening on %s: %w", addr, err)
	}
	publishExpvar(name, r)

	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", r.ServeText)
	mux.HandleFunc("/metrics.json", r.ServeJSON)

	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Serve returns ErrServerClosed on shutdown; anything else means the
		// debug server died, which must not take the study down with it.
		_ = srv.Serve(ln)
	}()
	shutdown := func() {
		_ = srv.Close()
		<-done
	}
	return ln.Addr().String(), shutdown, nil
}
