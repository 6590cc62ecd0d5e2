package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"iolayers/internal/cluster"
	"iolayers/internal/core"
	"iolayers/internal/httpapi"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/report"
)

// TestMain makes the test binary double as ioserved: start re-executes it
// with runMainEnv set, and then it is the daemon, not the tests — so the
// tests drive the real main() over real sockets without a `go build`.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "IOSERVED_TEST_RUN_MAIN"

// waitFor bounds every wait on a child (startup, drain, a poll), so a
// broken daemon fails the test instead of hanging it.
const waitFor = 15 * time.Second

// proc is one re-executed ioserved.
type proc struct {
	addr   string // host:port, read from its -addr-file
	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd.Wait has returned
}

// kill is kill -9; it returns once the port and the lake are free. Its
// error only says the process had already exited.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// term sends SIGTERM and returns the exit status of the drain.
func (p *proc) term(t *testing.T) int {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("ioserved on %s: %v", p.addr, err)
	}
	select {
	case <-p.exited:
	case <-time.After(waitFor):
		t.Fatalf("ioserved on %s still running %v after SIGTERM", p.addr, waitFor)
	}
	return p.cmd.ProcessState.ExitCode()
}

// start runs `ioserved -listen listen -addr-file … args...` with its files
// in dir and returns once it is ready: ioserved writes the addr-file only
// when every dataset it recovers or boot-ingests is queryable. A child
// that exits first, a bind that fails included, fails the test. The child
// is killed when the test ends, and a failed test logs its stderr.
func start(t *testing.T, dir, name, listen string, args ...string) *proc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(dir, name+".addr")
	os.Remove(addrFile)
	stderr, err := os.CreateTemp(dir, name+".*.stderr")
	if err != nil {
		t.Fatal(err)
	}
	p := &proc{exited: make(chan struct{})}
	p.cmd = exec.Command(exe, append([]string{"-listen", listen, "-addr-file", addrFile}, args...)...)
	// The race runtime sleeps a second before exiting unless told not to.
	p.cmd.Env = append(os.Environ(), runMainEnv+"=1", "GORACE=atexit_sleep_ms=0 "+os.Getenv("GORACE"))
	p.cmd.Stderr = stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.cmd.Wait()
		stderr.Close()
		close(p.exited)
	}()
	t.Cleanup(func() {
		p.kill()
		if msg, _ := os.ReadFile(stderr.Name()); t.Failed() {
			t.Logf("stderr of %s:\n%s", filepath.Base(stderr.Name()), msg)
		}
	})
	if err := poll(p.exited, func() error {
		// WriteFile is not atomic: the trailing newline says it finished.
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			p.addr = strings.TrimSpace(string(b))
			return nil
		}
		return fmt.Errorf("%s on %s is not ready", name, listen)
	}); err != nil {
		t.Fatal(err)
	}
	return p
}

// poll retries cond every 5 ms until it returns nil, or returns cond's
// last error once stop is closed or waitFor has passed.
func poll(stop <-chan struct{}, cond func() error) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	timeout := time.After(waitFor)
	for {
		err := cond()
		if err == nil {
			return nil
		}
		select {
		case <-stop:
			return fmt.Errorf("%w, and it exited", err)
		case <-timeout:
			return fmt.Errorf("%w after %v", err, waitFor)
		case <-tick.C:
		}
	}
}

// reply is one HTTP exchange.
type reply struct {
	status int
	gen    string // X-Dataset-Generation
	cache  string // X-Cache
	body   []byte
}

// client never reuses a connection: a pooled one to a kill -9'd replica
// would make the next request a transport retry.
var client = &http.Client{Timeout: waitFor, Transport: &http.Transport{DisableKeepAlives: true}}

// do sends one request to the daemon at addr (host:port): a GET, or with
// ingest = dataset, source a POST of {dataset, summit, source}.
func do(t *testing.T, addr, path string, ingest ...string) reply {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, "http://"+addr+path, nil)
	if ingest != nil {
		body, _ := json.Marshal(map[string]string{"dataset": ingest[0], "system": "summit", "source": ingest[1]})
		req, _ = http.NewRequest(http.MethodPost, "http://"+addr+path, bytes.NewReader(body))
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return reply{resp.StatusCode, resp.Header.Get("X-Dataset-Generation"), resp.Header.Get("X-Cache"), b}
}

// get is do that requires a 200.
func get(t *testing.T, addr, path string, ingest ...string) reply {
	t.Helper()
	r := do(t, addr, path, ingest...)
	if r.status != http.StatusOK {
		t.Fatalf("%s%s %v: %d %s", addr, path, ingest, r.status, r.body)
	}
	return r
}

const reportPath = "/v1/report/golden?format=json"

// golden copies the on-disk format golden into a fresh directory, the
// campaign every test ingests, and renders it the way `ioanalyze -format
// json` does: the bytes a served report of one ingest must equal.
func golden(t *testing.T) (dir string, want []byte) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "darshan", "logfmt", "testdata", "golden_v2.darshan"))
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "golden_v2.darshan"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, _, err := core.Ingest(context.Background(), systems.ByName("summit"), dir, core.IngestOptions{})
	var b bytes.Buffer
	if err == nil {
		err = report.Render(&b, rep, report.Options{Format: report.FormatJSON})
	}
	if err != nil {
		t.Fatal(err)
	}
	return dir, b.Bytes()
}

// The query service over real sockets: the boot ingest, its cached
// re-render and a .dgc ingested over the API all serve the ioanalyze
// bytes, and SIGTERM drains to exit 0.
func TestServeAnswersLikeIoanalyze(t *testing.T) {
	dir := t.TempDir()
	logs, want := golden(t)
	p := start(t, dir, "ioserved", "127.0.0.1:0", "-dataset", "golden", "-system", "summit", "-ingest", logs)
	get(t, p.addr, "/healthz")
	if got := get(t, p.addr, reportPath).body; !bytes.Equal(got, want) {
		t.Fatalf("served report differs from the ioanalyze render:\n got %s\nwant %s", got, want)
	}
	if again := get(t, p.addr, reportPath); again.cache != "hit" || !bytes.Equal(again.body, want) {
		t.Errorf("second fetch: X-Cache %q, same bytes %v; want a hit with the same bytes", again.cache, bytes.Equal(again.body, want))
	}
	if list := get(t, p.addr, "/v1/datasets").body; !bytes.Contains(list, []byte(`"name": "golden"`)) {
		t.Errorf("/v1/datasets does not list golden: %s", list)
	}
	dgc := filepath.Join(dir, "campaign.dgc")
	if _, err := core.Convert(context.Background(), logs, dgc, core.ConvertOptions{}); err != nil {
		t.Fatal(err)
	}
	get(t, p.addr, "/v1/ingest", "columnar", dgc)
	if got := get(t, p.addr, "/v1/report/columnar?format=json").body; !bytes.Equal(got, want) {
		t.Errorf("the .dgc dataset's report differs from the row-oriented reference:\n got %s\nwant %s", got, want)
	}
	if code := p.term(t); code != 0 {
		t.Errorf("exit %d after SIGTERM, want a graceful 0", code)
	}
}

// A lake-backed replica at generation 2 (a boot ingest plus an API ingest)
// comes back from kill -9 at generation 2 with the same bytes: recovered
// from its lake, not re-ingested, and not a generation short.
func TestLakeRecoversGenerationTwoAfterKill9(t *testing.T) {
	dir := t.TempDir()
	logs, want := golden(t)
	lake := filepath.Join(dir, "lake")
	p := start(t, dir, "ioserved", "127.0.0.1:0", "-lake", lake, "-dataset", "golden", "-system", "summit", "-ingest", logs)
	if boot := get(t, p.addr, reportPath); boot.gen != "1" || !bytes.Equal(boot.body, want) {
		t.Fatalf("lake-backed boot ingest: generation %q, same bytes as ioanalyze %v; want 1, same bytes", boot.gen, bytes.Equal(boot.body, want))
	}
	get(t, p.addr, "/v1/ingest", "golden", logs)
	pre := get(t, p.addr, reportPath)
	if pre.gen != "2" {
		t.Fatalf("generation %q before the kill, want 2", pre.gen)
	}
	p.kill()
	p = start(t, dir, "ioserved", "127.0.0.1:0", "-lake", lake)
	if post := get(t, p.addr, reportPath); post.gen != "2" || !bytes.Equal(post.body, pre.body) {
		t.Errorf("after kill -9 and restart: generation %q, same bytes %v; want 2, same bytes", post.gen, bytes.Equal(post.body, pre.body))
	}
	recovered := regexp.MustCompile(`"name": "serve.lake.recovered_datasets",\s+"value": [1-9]`)
	if metrics := get(t, p.addr, "/metrics.json").body; !recovered.Match(metrics) {
		t.Errorf("serve.lake.recovered_datasets is not > 0 in %s", metrics)
	}
	if code := p.term(t); code != 0 {
		t.Errorf("recovered ioserved: exit %d after SIGTERM, want a graceful 0", code)
	}
}

// fleet is three lake-backed ioserved replicas behind an in-process router
// at rf=2 that probes every 100 ms, with the golden campaign ingested
// through it.
type fleet struct {
	t        *testing.T
	dir      string
	replicas []*proc
	router   *cluster.Router
	addr     string // the router's host:port
	owners   []int  // golden's owners, in fan-out order
}

func newFleet(t *testing.T, logs string) *fleet {
	f := &fleet{t: t, dir: t.TempDir()}
	var addrs []string
	for i := 0; i < 3; i++ {
		f.replicas = append(f.replicas, start(t, f.dir, fmt.Sprint("replica", i), "127.0.0.1:0", "-lake", f.lake(i)))
		addrs = append(addrs, f.replicas[i].addr)
	}
	router, err := cluster.NewRouter(cluster.Config{
		Replicas: addrs, Replication: 2, AttemptTimeout: 2 * time.Second,
		ProbeInterval: 100 * time.Millisecond, ProbeTimeout: 500 * time.Millisecond,
		Breaker: cluster.BreakerConfig{Threshold: 2, OpenBase: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	router.Start()
	t.Cleanup(router.Close)
	srv := httptest.NewServer(router.Handler())
	t.Cleanup(srv.Close)
	f.router, f.addr = router, srv.Listener.Addr().String()

	var fan struct{ Replicas []struct{ Replica string } }
	json.Unmarshal(get(t, f.addr, "/v1/ingest", "golden", logs).body, &fan)
	for _, be := range router.Owners("golden") {
		for i, p := range f.replicas {
			if p.addr == be.Name {
				f.owners = append(f.owners, i)
			}
		}
	}
	if len(fan.Replicas) != 2 || len(f.owners) != 2 {
		t.Fatalf("the ingest landed on %d replicas of owners %v, want 2 (rf=2)", len(fan.Replicas), f.owners)
	}
	return f
}

func (f *fleet) lake(i int) string { return filepath.Join(f.dir, fmt.Sprint("lake", i)) }

// restart starts owner i again on its old address and its lake, and
// returns once the router has readmitted it.
func (f *fleet) restart(i int) {
	addr := f.replicas[i].addr
	f.replicas[i] = start(f.t, f.dir, fmt.Sprint("replica", i), addr, "-lake", f.lake(i))
	if err := poll(nil, func() error {
		for _, be := range f.router.Owners("golden") {
			if be.Name == addr && (!be.Healthy() || be.BreakerState() != cluster.BreakerClosed) {
				return fmt.Errorf("the router has not readmitted %s", addr)
			}
		}
		return nil
	}); err != nil {
		f.t.Fatal(err)
	}
}

// The cluster's kill story with real processes: each owner of a dataset is
// kill -9'd in turn and restarted on its lake, and every routed 200 is the
// ioanalyze render throughout.
func TestClusterSurvivesOwnerKills(t *testing.T) {
	logs, want := golden(t)
	f := newFleet(t, logs)
	// A 5xx is a failover still in progress; a 200 with other bytes, or a
	// 4xx (a dataset no live owner has), fails at once.
	routed := func() error {
		r := do(t, f.addr, reportPath)
		if r.status >= 500 {
			return fmt.Errorf("routed report: %d %s", r.status, r.body)
		}
		if r.status != http.StatusOK || !bytes.Equal(r.body, want) {
			t.Fatalf("routed report: %d, want 200 with the ioanalyze render:\n got %s\nwant %s", r.status, r.body, want)
		}
		return nil
	}
	if err := routed(); err != nil {
		t.Fatal(err)
	}
	for _, i := range f.owners {
		f.replicas[i].kill()
		if err := poll(nil, routed); err != nil {
			t.Fatalf("with replica %d down: %v", i, err)
		}
		f.restart(i)
	}
	for n := 0; n < 5; n++ {
		if err := routed(); err != nil {
			t.Fatalf("steady-state fetch %d: %v", n, err)
		}
	}
	if list := get(t, f.addr, "/v1/datasets").body; !bytes.Contains(list, []byte(`"name": "golden"`)) {
		t.Errorf("routed /v1/datasets does not list golden: %s", list)
	}
}

// A fan-out that loses its second owner: the router says 1 of 2 owners
// landed, the first owner moves to generation 2, and the second, restarted
// on its lake, still serves generation 1 with the bytes it had.
func TestPartialFanoutLeavesOwnersApart(t *testing.T) {
	logs, _ := golden(t)
	f := newFleet(t, logs)
	first, second := f.owners[0], f.owners[1]
	before := get(t, f.replicas[second].addr, reportPath)
	f.replicas[second].kill()
	r := do(t, f.addr, "/v1/ingest", "golden", logs)
	var env httpapi.ErrorEnvelope
	if json.Unmarshal(r.body, &env); r.status != http.StatusBadGateway ||
		env.Error.Code != httpapi.CodeUpstreamFailed || !strings.Contains(env.Error.Message, "1 of 2 owners landed") {
		t.Errorf("ingest with the second owner down: %d %s, want 502 upstream_failed naming 1 of 2 owners landed", r.status, r.body)
	}
	if got := get(t, f.replicas[first].addr, reportPath).gen; got != "2" {
		t.Errorf("first owner at generation %s, want 2", got)
	}
	f.restart(second)
	if after := get(t, f.replicas[second].addr, reportPath); before.gen != "1" || after.gen != "1" || !bytes.Equal(after.body, before.body) {
		t.Errorf("second owner: generation %s before the kill, %s after the restart, same bytes %v; want 1, 1, same bytes",
			before.gen, after.gen, bytes.Equal(after.body, before.body))
	}
}
