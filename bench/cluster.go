package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"iolayers/internal/analysis"
	"iolayers/internal/cluster"
	"iolayers/internal/core"
	"iolayers/internal/darshan"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/iosim"
	"iolayers/internal/obsv"
	"iolayers/internal/report"
	"iolayers/internal/serve"
)

const (
	numReplicas = 3
	replication = 2
	// ingestPerOps is the serve-churn write share: one ingest per 50 ops.
	ingestPerOps = 50
)

// apiKeys are the two tenants. Their buckets refill far faster than any
// closed loop on loopback can spend, so a 429 is a failure, not load
// shedding.
var apiKeys = []string{"bench-key-a", "bench-key-b"}

const tenantRate = 1e7

type urlKind uint8

const (
	kReport urlKind = iota
	kPredict
	kCompare
	kDatasets
)

// urlSpec is one question a service client can ask.
type urlSpec struct {
	kind    urlKind
	path    string
	ds, ds2 int
	section string
	format  report.Format
}

// dataset is one serve dataset: a deterministic fixture corpus, its logs
// decoded for the oracle's replay, and — from fresh on — the reference
// aggregator holding a sequential single-aggregator fold of generation 1.
type dataset struct {
	name   string
	system string
	sys    *iosim.System
	dir    string
	files  []string
	logs   []*darshan.Log
	ref    *analysis.Aggregator
	// ingested is the log index folded in by each acknowledged ingest, in
	// order: generation g (g >= 2) is generation 1 plus ingested[:g-1].
	ingested []int
	bytes    int64
	// refFull is the reference full-JSON report at the generations a
	// recovered replica may hold: 1 (never an owner) and the last.
	refFull map[uint64][]byte
}

// write synthesizes the dataset's fixture corpus and decodes it back, in
// the sorted order IngestDir reads it.
func (d *dataset) write(logs int, seed uint64) error {
	if err := serve.WriteFixture(d.dir, d.sys, logs, seed); err != nil {
		return err
	}
	var err error
	if d.files, err = filepath.Glob(filepath.Join(d.dir, "*.darshan")); err != nil {
		return err
	}
	sort.Strings(d.files)
	for _, p := range d.files {
		log, err := logfmt.ReadFile(p)
		if err != nil {
			return err
		}
		if fi, err := os.Stat(p); err == nil {
			d.bytes += fi.Size()
		}
		d.logs = append(d.logs, log)
	}
	return nil
}

// fresh returns the dataset as a set-up finds it: generation 1, its
// reference a new aggregator with one AddLog per fixture log.
func (d *dataset) fresh() *dataset {
	c := *d
	c.ref, c.ingested, c.refFull = analysis.NewAggregator(d.sys), nil, nil
	for _, log := range c.logs {
		c.ref.AddLog(log)
	}
	return &c
}

type replica struct {
	name    string
	lakeDir string
	lake    *serve.Lake
	store   *serve.Store
	metrics *obsv.Registry
	ln      net.Listener
	srv     *http.Server
	// ackGen is the last generation this replica acknowledged per dataset.
	ackGen []uint64
}

// svcEnv is the service client's world: three in-process replicas behind
// a router, on loopback TCP, configured as cmd/ioserved and cmd/iorouter
// configure them.
type svcEnv struct {
	dir      string
	churn    bool
	callers  int
	datasets []*dataset
	replicas []*replica
	router   *cluster.Router
	routerM  *obsv.Registry
	routerLn net.Listener
	routerS  *http.Server
	base     string
	client   *http.Client
	urls     []urlSpec
	// index of each question in urls
	reportIdx  [][]int
	predictIdx []int
	compareIdx [][]int
	datasetsID int
	tracer     *tracer
	// routed counts the ingests acknowledged through the router since boot,
	// warm-up's included, and listed those taken off the op list. When
	// routed reaches storedAt the lakes' size is taken into lakeBytes: a
	// fixed point of a seeded sequence, so an exact count.
	routed, listed, storedAt int
	lakeBytes                int64
}

// reportVariants lists the (section, format) pairs a report question may
// take: every section but faults (fixture data has none) in json and
// text, plus the full report as csv (csv takes no section).
func reportVariants() (out []struct {
	section string
	format  report.Format
}) {
	sections := []string{""}
	for _, s := range report.SectionNames() {
		if s != "faults" {
			sections = append(sections, s)
		}
	}
	for _, s := range sections {
		for _, f := range []report.Format{report.FormatJSON, report.FormatText} {
			out = append(out, struct {
				section string
				format  report.Format
			}{s, f})
		}
	}
	return append(out, struct {
		section string
		format  report.Format
	}{"", report.FormatCSV})
}

func (e *svcEnv) buildURLs() {
	n := len(e.datasets)
	e.reportIdx, e.predictIdx, e.compareIdx = make([][]int, n), make([]int, n), make([][]int, n)
	add := func(u urlSpec) int {
		e.urls = append(e.urls, u)
		return len(e.urls) - 1
	}
	for i, d := range e.datasets {
		for _, v := range reportVariants() {
			path := "/v1/report/" + d.name + "?format=" + string(v.format)
			if v.section != "" {
				path += "&section=" + v.section
			}
			e.reportIdx[i] = append(e.reportIdx[i], add(urlSpec{kind: kReport, path: path, ds: i, section: v.section, format: v.format}))
		}
		e.predictIdx[i] = add(urlSpec{kind: kPredict, path: "/v1/predict/" + d.name, ds: i})
		e.compareIdx[i] = make([]int, n)
		for j, other := range e.datasets {
			if i != j {
				e.compareIdx[i][j] = add(urlSpec{kind: kCompare, path: "/v1/compare/" + d.name + "/" + other.name, ds: i, ds2: j})
			}
		}
	}
	e.datasetsID = add(urlSpec{kind: kDatasets, path: "/v1/datasets"})
}

// setupService folds the references, boots the replicas from the fixture
// directories and the router, and warms up: every question asked once
// (and, for serve-churn, every dataset ingested into through one
// compaction).
func setupService(ctx context.Context, o options, in *inputs, t *tracer) (*svcEnv, error) {
	sz := o.size()
	e := &svcEnv{dir: in.runDir(), churn: o.workload == wServeChurn, callers: o.callers, tracer: t,
		storedAt: sz.storedRounds * len(in.datasets)}
	if err := os.Mkdir(e.dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()

	for _, d := range in.datasets {
		e.datasets = append(e.datasets, d.fresh())
	}
	e.buildURLs()

	var addrs []string
	for i := 0; i < numReplicas; i++ {
		rp, err := e.bootReplica(ctx, i, sz)
		if err != nil {
			return nil, err
		}
		e.replicas = append(e.replicas, rp)
		addrs = append(addrs, rp.name)
	}

	keyring := cluster.NewKeyring(nil)
	for i, key := range apiKeys {
		if err := keyring.Add(key, cluster.Tenant{Name: fmt.Sprintf("tenant-%d", i), Rate: tenantRate, Burst: tenantRate}); err != nil {
			return nil, err
		}
	}
	e.routerM = obsv.New()
	cfg := cluster.Config{Replicas: addrs, Replication: replication, Keyring: keyring, Metrics: e.routerM}
	if e.churn {
		// iorouter -probe-every 1h. A replica reports not-ready while it
		// compacts; a probe that lands in that window benches it for a
		// second, and an ingest whose second owner is benched is refused
		// after its first owner has committed — the owners then disagree
		// about what a generation holds (ROADMAP's generation-skew hole),
		// and one run in thirty lost 9,300 answers to it. The prober still
		// starts and sweeps once; it does not get a second look.
		cfg.ProbeInterval = time.Hour
	}
	if t != nil {
		cfg.Transport = &tracedTransport{t: t, base: http.DefaultTransport}
	}
	if e.router, err = cluster.NewRouter(cfg); err != nil {
		return nil, err
	}
	e.router.Start()
	if e.routerLn, err = listenSlot(numReplicas); err != nil {
		return nil, err
	}
	e.routerS = &http.Server{Handler: t.wrap("cluster.handler", "", e.router.Handler()), ReadHeaderTimeout: 5 * time.Second}
	go e.routerS.Serve(e.routerLn)
	e.base = "http://" + e.routerLn.Addr().String()
	e.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: o.callers, MaxConnsPerHost: o.callers, DisableCompression: true,
	}}

	if err := e.warmUp(ctx, o, sz); err != nil {
		return nil, err
	}
	ok = true
	return e, nil
}

// fixtureSeed derives dataset i's fixture seed from the run's. It is 20
// bits wide whatever the run's seed: job ids are the fixture seed times a
// million, the lake stores them in a variable-length encoding, and seeds
// of different widths would make stored_bytes_per_log step by 4% between
// them. The low bits are i, so no two datasets of a run share a seed.
func fixtureSeed(seed uint64, i int) uint64 {
	return 1<<19 | rand.New(rand.NewPCG(seed, 0xF1C5)).Uint64()&(1<<19-1)&^7 | uint64(i)
}

func (e *svcEnv) bootReplica(ctx context.Context, i int, sz sizing) (*replica, error) {
	rp := &replica{metrics: obsv.New(), ackGen: make([]uint64, len(e.datasets))}
	rp.store = serve.NewStore()
	cfg := serve.Config{Metrics: rp.metrics, IngestWorkers: e.callers}
	if e.churn {
		rp.lakeDir = filepath.Join(e.dir, fmt.Sprintf("lake%d", i))
		lake, err := serve.OpenLake(serve.LakeConfig{Dir: rp.lakeDir, Metrics: rp.metrics})
		if err != nil {
			return nil, err
		}
		rp.lake = lake
		rp.store = serve.NewStoreAttached(lake)
		if err := rp.store.RecoverLake(); err != nil {
			return nil, err
		}
		cfg.CacheBytes = sz.cacheBytes
	}
	cfg.Store = rp.store
	server := serve.New(cfg)
	ln, err := listenSlot(i)
	if err != nil {
		return nil, err
	}
	rp.ln, rp.name = ln, ln.Addr().String()
	rp.srv = &http.Server{Handler: e.tracer.wrap("serve.handler", rp.name, server.Handler()), ReadHeaderTimeout: 5 * time.Second}
	go rp.srv.Serve(ln)
	for di, d := range e.datasets {
		snap, res, err := rp.store.Ingest(ctx, d.name, d.sys, d.dir, core.IngestOptions{Workers: e.callers, Metrics: rp.metrics})
		if err != nil {
			return nil, fmt.Errorf("boot ingest of %s: %w", d.name, err)
		}
		if res.Parsed != len(d.logs) || res.Failed != 0 {
			return nil, fmt.Errorf("boot ingest of %s: parsed %d of %d", d.name, res.Parsed, len(d.logs))
		}
		rp.ackGen[di] = snap.Gen
	}
	return rp, nil
}

// warmUp asks every question once through the router, so the timed run
// starts with the caches as full as the workload lets them get, and on
// serve-churn first ingests into every dataset round-robin until each has
// compacted once: background work reaches its steady cycle before timing.
func (e *svcEnv) warmUp(ctx context.Context, o options, sz sizing) error {
	c := newCaller(e, 0, o)
	if e.churn {
		rng := rand.New(rand.NewPCG(o.seed, 0xC0FFEE))
		for r := 0; r < sz.warmRounds; r++ {
			for di, d := range e.datasets {
				if _, err := c.ingest(ctx, ingestOp{ds: di, log: rng.IntN(len(d.logs))}); err != nil {
					return fmt.Errorf("warm-up ingest: %w", err)
				}
			}
		}
	}
	for i := range e.urls {
		if !c.read(ctx, i, "") {
			return fmt.Errorf("warm-up read of %s failed", e.urls[i].path)
		}
	}
	if c.failed > 0 {
		return errors.New("warm-up saw a wrong answer")
	}
	return nil
}

// storedBytesPerLog is the at-rest size per log of what the replicas
// answer from: the lake on serve-churn, the fixture corpus the replicas
// boot from on serve-hot (which has no other durable form).
func (e *svcEnv) storedBytesPerLog() float64 {
	if e.churn {
		return float64(e.lakeBytes) / float64(replication*e.storedAt)
	}
	var bytes int64
	var logs int
	for _, d := range e.datasets {
		bytes += d.bytes
		logs += len(d.logs)
	}
	return float64(bytes) / float64(logs)
}

// scratchDir makes the run's directory under root. Its name has a fixed
// width — dataset source paths are stored in the lake's journal, so a
// name of varying length would make the lake's size vary with it.
func scratchDir(root string) (string, error) {
	for i := 0; i < 1000; i++ {
		dir := filepath.Join(root, fmt.Sprintf("w%03d", i))
		if err := os.Mkdir(dir, 0o755); err == nil {
			return dir, nil
		} else if !errors.Is(err, os.ErrExist) {
			return "", err
		}
	}
	return "", fmt.Errorf("no free scratch directory under %s", root)
}

// listenSlot listens on loopback at a port fixed by the slot, below the
// ephemeral range. The router's hash ring places datasets by replica
// address, so addresses that changed from run to run would move datasets
// between replicas and the per-replica load and cache contents with them;
// a busy port falls back to the next of a fixed sequence.
func listenSlot(slot int) (net.Listener, error) {
	var err error
	for try := 0; try < 64; try++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", 23100+slot+8*try)); err == nil {
			return ln, nil
		}
	}
	return nil, err
}

func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total
}

// stopServing shuts the listeners and the prober; the lakes stay on disk
// for the recovery check.
func (e *svcEnv) stopServing() {
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.routerS != nil {
		e.routerS.Close()
	}
	if e.router != nil {
		e.router.Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for _, rp := range e.replicas {
		rp.srv.Close()
		if rp.lake != nil {
			rp.lake.Close()
			rp.lake = nil
		}
	}
	e.routerS, e.router, e.client = nil, nil, nil
}

func (e *svcEnv) close() {
	e.stopServing()
	os.RemoveAll(e.dir)
}

// counter sums an obsv counter over the replicas.
func (e *svcEnv) replicaCounter(name string) int64 {
	var sum int64
	for _, rp := range e.replicas {
		sum += rp.metrics.Counter(name).Value()
	}
	return sum
}

// owners returns the replica names owning a dataset, primary first.
func (e *svcEnv) owners(ds int) []string {
	var names []string
	for _, be := range e.router.Owners(e.datasets[ds].name) {
		names = append(names, be.Name)
	}
	return names
}

// ingestOp is one write: fold one fixture log into a dataset.
type ingestOp struct{ ds, log int }

// opList is a workload's seeded input: the questions, in order, and for
// serve-churn the ingests caller 0 issues in order. Both repeat if a run
// outlasts them.
type opList struct {
	reads   []int
	ingests []ingestOp
	digest  string
}

// genOps draws the service op list from the seed. The mix is the repo's
// own stated traffic (scripts/scenarios/smoke_1k.toml without its ingest
// trickle): report 80 / compare 10 / predict 5 / datasets 5. Dataset
// popularity is Zipf(1.2) on serve-hot and uniform on serve-churn.
func (e *svcEnv) genOps(o options) *opList {
	sz := o.size()
	rng := rand.New(rand.NewPCG(o.seed, uint64(len(o.workload))))
	n := len(e.datasets)
	cum := make([]float64, n)
	var total float64
	for rank, di := range rng.Perm(n) {
		w := 1.0
		if !e.churn {
			w = 1 / math.Pow(float64(rank+1), 1.2)
		}
		cum[di] = w
		total += w
	}
	pick := func() int {
		x := rng.Float64() * total
		for di, w := range cum {
			if x -= w; x < 0 {
				return di
			}
		}
		return n - 1
	}
	ops := &opList{}
	h := fnv.New64a()
	for i := 0; i < sz.opListLen; i++ {
		var id int
		switch x := rng.Float64() * 100; {
		case x < 80:
			v := e.reportIdx[pick()]
			id = v[rng.IntN(len(v))]
		case x < 90:
			a := pick()
			b := (a + 1 + rng.IntN(n-1)) % n
			id = e.compareIdx[a][b]
		case x < 95:
			id = e.predictIdx[pick()]
		default:
			id = e.datasetsID
		}
		ops.reads = append(ops.reads, id)
		h.Write([]byte(e.urls[id].path))
		h.Write([]byte{'\n'})
	}
	if e.churn {
		// datasets in turn, so that each is at the same point of its
		// compaction cycle when the lakes are measured
		order := rng.Perm(n)
		for i := 0; i < sz.ingestLen; i++ {
			op := ingestOp{ds: order[i%n], log: rng.IntN(sz.fixtureLogs)}
			ops.ingests = append(ops.ingests, op)
			fmt.Fprintf(h, "ingest %d %d\n", op.ds, op.log)
		}
	}
	ops.digest = fmt.Sprintf("%016x", h.Sum64())
	return ops
}

// wrap times a handler from outside. serve.handler spans carry the
// outcome — hit, miss, ingest, datasets — because from bench/ that is as
// far into the replica as a span can see: a miss is render + cache put, an
// ingest is decode + clone + merge + Report + lake commit.
func (t *tracer) wrap(name, host string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() || !strings.HasPrefix(r.URL.Path, "/v1") {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		full := name
		if name == "serve.handler" {
			switch {
			case r.URL.Path == "/v1/ingest":
				full += "/ingest"
			case r.URL.Path == "/v1/datasets":
				full += "/datasets"
			case w.Header().Get("X-Cache") == "hit":
				full += "/hit"
			default:
				full += "/miss"
			}
		}
		t.add(full, start, end, host)
	})
}

// tracedTransport is the router's upstream transport in a traced
// invocation: a span from request sent to body closed.
type tracedTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.enabled() {
		return tt.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		tt.t.add("cluster.upstream", start, time.Now(), req.URL.Host)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { tt.t.add("cluster.upstream", start, time.Now(), req.URL.Host) }}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done != nil {
		b.done()
		b.done = nil
	}
	return err
}
