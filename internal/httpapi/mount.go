package httpapi

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"time"

	"iolayers/internal/obsv"
)

// IndexPath is where Mount serves a table's machine-readable index.
const IndexPath = "/v1"

// Route is one row of a service's route table — the single declaration
// of an endpoint. Mount derives everything else from it: the mux pattern,
// the row's entry in the GET /v1 index (the exported JSON fields), the
// checks that run before the handler, and the row's metrics.
type Route struct {
	Path string `json:"path"`
	// Methods defaults to GET when empty.
	Methods []string `json:"methods"`
	// Params lists the accepted query parameters; anything else is
	// rejected with a bad_param envelope.
	Params []string `json:"params,omitempty"`
	// SchemaVersion is the schema of the endpoint's JSON document; zero
	// for plain-text endpoints.
	SchemaVersion int `json:"schema_version,omitempty"`

	// Name keys the row's request counter and latency histogram:
	// <Table.MetricPrefix>.<Name>.requests and .latency_us.
	Name string `json:"-"`
	// Admit, when set, decides whether a request runs at all (an API key,
	// a concurrency slot, a deadline). It wraps everything else, so a
	// request it turns away is neither checked nor counted.
	Admit func(http.HandlerFunc) http.HandlerFunc `json:"-"`
	// Handler answers a request that passed the row's checks; it reads
	// query values with req.FormValue. Nil only on the IndexPath row,
	// which Mount serves from the table itself.
	Handler http.HandlerFunc `json:"-"`
}

// Table is one service's whole HTTP surface.
type Table struct {
	// Service names the service in the index ("ioserved", "iorouter").
	Service string
	// Metrics receives the per-row counters and histograms and is served
	// at /metrics and /metrics.json; nil turns both off.
	Metrics      *obsv.Registry
	MetricPrefix string
	// ValidDataset judges path values: every {wildcard} in a Route.Path
	// names a dataset.
	ValidDataset func(name string) bool
	// Ready answers /readyz.
	Ready http.HandlerFunc
	// Routes are the API rows. Each runs as Admit → count and time →
	// dataset-name path values (400 bad_request) → closed query-parameter
	// set (400 bad_param) → Handler.
	Routes []Route
}

// IndexDoc is the GET /v1 response: the service's discoverable surface.
type IndexDoc struct {
	SchemaVersion int     `json:"schema_version"`
	Service       string  `json:"service"`
	Routes        []Route `json:"routes"`
}

// IndexSchemaVersion stamps the route-index document itself.
const IndexSchemaVersion = 1

// BuildIndex assembles the route index with routes sorted by path (then
// first method), so the document is deterministic regardless of
// declaration order.
func BuildIndex(service string, routes []Route) IndexDoc {
	sorted := append([]Route(nil), routes...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Path != sorted[j].Path {
			return sorted[i].Path < sorted[j].Path
		}
		return sorted[i].Methods[0] < sorted[j].Methods[0]
	})
	return IndexDoc{SchemaVersion: IndexSchemaVersion, Service: service, Routes: sorted}
}

// Mount turns a table into the service's root handler. Beside the table's
// own rows it mounts the operational endpoints every service has —
// /healthz, /readyz, and the metrics pair when t.Metrics is set — bare:
// probes and scrapers are neither counted nor parameter-checked. The
// index is built from the rows that are actually mounted, so the two
// cannot disagree, and a catch-all answers everything else in the
// envelope: 404 not_found for a path no row has, 405 bad_request (Allow
// header set) for a row's path under the wrong method.
func Mount(t Table) http.Handler {
	rows := []Route{{Path: "/healthz", Handler: live}, {Path: "/readyz", Handler: t.Ready}}
	if t.Metrics != nil {
		rows = append(rows,
			Route{Path: "/metrics", Handler: t.Metrics.ServeText},
			Route{Path: "/metrics.json", Handler: t.Metrics.ServeJSON})
	}
	var index IndexDoc // built below, once every row is in
	for _, rt := range t.Routes {
		if rt.Path == IndexPath {
			rt.Handler = func(w http.ResponseWriter, _ *http.Request) { WriteDoc(w, index) }
		}
		rt.Handler = t.apiHandler(rt)
		rows = append(rows, rt)
	}

	mux := http.NewServeMux()
	allow := map[string][]string{}
	for i := range rows {
		rt := &rows[i]
		if len(rt.Methods) == 0 {
			rt.Methods = []string{http.MethodGet}
		}
		for _, m := range rt.Methods {
			mux.HandleFunc(m+" "+rt.Path, rt.Handler)
		}
		allow[rt.Path] = append(allow[rt.Path], rt.Methods...)
	}
	index = BuildIndex(t.Service, rows)

	// The catch-all asks a second, method-less mux whether the path is
	// one of the table's, so path matching stays net/http's.
	byPath := http.NewServeMux()
	for path, methods := range allow {
		byPath.HandleFunc(path, wrongMethod(methods))
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if h, pattern := byPath.Handler(req); pattern != "" {
			h.ServeHTTP(w, req)
			return
		}
		WriteError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("no route %s %s (GET %s lists the surface)", req.Method, req.URL.Path, IndexPath))
	})
	return mux
}

// apiHandler builds one API row's pipeline, resolving its metrics once.
func (t Table) apiHandler(rt Route) http.HandlerFunc {
	var datasets []string
	for _, seg := range strings.Split(rt.Path, "/") {
		if strings.HasPrefix(seg, "{") {
			datasets = append(datasets, strings.Trim(seg, "{}"))
		}
	}
	requests := t.Metrics.Counter(t.MetricPrefix + "." + rt.Name + ".requests")
	latency := t.Metrics.TimeHistogram(t.MetricPrefix + "." + rt.Name + ".latency_us")
	checked := func(w http.ResponseWriter, req *http.Request) {
		for _, wildcard := range datasets {
			if name := req.PathValue(wildcard); !t.ValidDataset(name) {
				WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("invalid dataset name %q", name))
				return
			}
		}
		q := req.URL.Query()
		if err := checkParams(q, rt.Params); err != nil {
			WriteError(w, http.StatusBadRequest, CodeBadParam, err.Error())
			return
		}
		req.Form = q // parsed once: the handler's FormValue reads this
		rt.Handler(w, req)
	}
	h := func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		checked(w, req)
		requests.Add(1)
		latency.Observe(time.Since(start).Microseconds())
	}
	if rt.Admit != nil {
		return rt.Admit(h)
	}
	return h
}

// live answers /healthz: the process is up, unconditionally.
func live(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// wrongMethod answers a known path under a method no row declares for it.
func wrongMethod(methods []string) http.HandlerFunc {
	if slices.Contains(methods, http.MethodGet) {
		methods = append(methods, http.MethodHead) // a GET pattern serves HEAD too
	}
	sort.Strings(methods)
	allowed := strings.Join(methods, ", ")
	return func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Allow", allowed)
		WriteError(w, http.StatusMethodNotAllowed, CodeBadRequest,
			fmt.Sprintf("method %s is not allowed on %s (allowed: %s)", req.Method, req.URL.Path, allowed))
	}
}
