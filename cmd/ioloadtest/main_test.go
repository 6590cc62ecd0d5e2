package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iolayers/internal/cluster"
	"iolayers/internal/core"
	"iolayers/internal/httpapi"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/loadtest"
	"iolayers/internal/report"
	"iolayers/internal/serve"
)

// TestMain makes the test binary double as ioloadtest: run re-executes it
// with runMainEnv set, and then it is the load generator, not the tests —
// so the test drives the real main() without a `go build`.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "IOLOADTEST_TEST_RUN_MAIN"

// The committed scenario and SLO baseline the gate runs against.
var (
	scenarioFile = filepath.Join("..", "..", "scripts", "scenarios", "smoke_1k.toml")
	sloBaseline  = filepath.Join("..", "..", "slo_baseline.json")
)

// run executes `ioloadtest args...` and returns its exit status and its
// output. A child still running after a minute is killed and fails the
// test instead of hanging it.
func run(t *testing.T, args ...string) (int, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	// The race runtime sleeps a second before exiting unless told not to.
	cmd.Env = append(os.Environ(), runMainEnv+"=1", "GORACE=atexit_sleep_ms=0 "+os.Getenv("GORACE"))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case ctx.Err() != nil:
		t.Fatalf("ioloadtest %v still running after a minute:\n%s", args, out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	case err != nil:
		t.Fatal(err)
	}
	return 0, string(out)
}

// replica is what `ioserved -fixture golden:32:9` serves, in process: the
// fixture corpus folded into dataset "golden" at generation 1.
func replica(t *testing.T, fixture string, cfg serve.Config) string {
	t.Helper()
	cfg.Store = serve.NewStore()
	if _, _, err := cfg.Store.Ingest(context.Background(), "golden", systems.ByName("summit"), fixture, core.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.New(cfg).Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// The SLO gate, end to end with the real binary: three fixture-booted
// replicas behind a router at replication 3 with two API-keyed tenants.
// -make-fixture writes the corpus the replicas booted from, so folding it
// in process is the routed report's ground truth; the committed smoke
// scenario passes the committed baseline with no divergent body; a
// replica whose every query times out fails the same gate; and a run
// with no target is a usage error.
//
// Scale 0.25 keeps the check about the gate, not capacity: under -race
// the full scenario saturates a 2-core host, while the bands, the
// divergence pin and the degraded leg do not depend on the rate.
func TestSLOGate(t *testing.T) {
	dir := t.TempDir()
	fixture := filepath.Join(dir, "fixture")
	if err := serve.WriteFixture(fixture, systems.ByName("summit"), 32, 9); err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := 0; i < 3; i++ {
		addrs = append(addrs, replica(t, fixture, serve.Config{MaxInFlight: 256}))
	}
	keys := cluster.NewKeyring(nil)
	for _, spec := range []string{"loadkey-a=alpha:5000:10000", "loadkey-b=beta:5000:10000"} {
		key, tenant, err := cluster.ParseKeySpec(spec)
		if err == nil {
			err = keys.Add(key, tenant)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	router, err := cluster.NewRouter(cluster.Config{
		Replicas: addrs, Replication: 3, Keyring: keys,
		ProbeInterval: 200 * time.Millisecond, ProbeTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	router.Start()
	t.Cleanup(router.Close)
	front := httptest.NewServer(router.Handler())
	t.Cleanup(front.Close)

	corpus := filepath.Join(dir, "corpus")
	if code, out := run(t, "-make-fixture", corpus, "-fixture-logs", "32", "-fixture-seed", "9"); code != 0 {
		t.Fatalf("-make-fixture: exit %d:\n%s", code, out)
	}
	rep, _, err := core.Ingest(context.Background(), systems.ByName("summit"), corpus, core.IngestOptions{})
	var want bytes.Buffer
	if err == nil {
		err = report.Render(&want, rep, report.Options{Format: report.FormatJSON})
	}
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, []byte) {
		req, _ := http.NewRequest(http.MethodGet, front.URL+path, nil)
		req.Header.Set("X-API-Key", "loadkey-a")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	if code, body := get("/v1/report/golden?format=json"); code != http.StatusOK || !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("routed report: %d, want 200 with the render of the -make-fixture corpus:\n got %s\nwant %s", code, body, want.Bytes())
	}
	// The routed errors the generator meets are envelopes: a missing
	// dataset relayed from a replica, an unknown parameter refused at
	// the router, named.
	for _, c := range []struct {
		path   string
		status int
		code   httpapi.Code
		names  string
	}{
		{"/v1/report/nosuch", http.StatusNotFound, httpapi.CodeNotFound, "nosuch"},
		{"/v1/report/golden?frmt=json", http.StatusBadRequest, httpapi.CodeBadParam, "frmt"},
	} {
		status, body := get(c.path)
		env, ok := httpapi.DecodeError(body)
		if status != c.status || !ok || env.Error.Code != c.code || !strings.Contains(env.Error.Message, c.names) {
			t.Errorf("routed %s: %d %s, want %d %s naming %s", c.path, status, body, c.status, c.code, c.names)
		}
	}

	// The two load legs run at once: each offers its own target.
	t.Run("smoke", func(t *testing.T) {
		t.Parallel()
		summary := filepath.Join(dir, "summary.json")
		code, out := run(t, "-target", front.URL, "-scenario", scenarioFile, "-scale", "0.25", "-duration", "3s",
			"-apikey", "loadkey-a", "-apikey", "loadkey-b", "-ingest-source", corpus,
			"-out", summary, "-check", sloBaseline, "-q")
		if code != 0 {
			t.Fatalf("smoke scenario against the cluster: exit %d, want 0:\n%s", code, out)
		}
		raw, err := os.ReadFile(summary)
		if err != nil {
			t.Fatal(err)
		}
		var res loadtest.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if compares := res.Ops[string(loadtest.OpCompare)]; res.Totals.Divergent != 0 || compares == nil || compares.OK == 0 {
			t.Errorf("summary: %d divergent bodies and compares %+v; want none divergent, with compares answered",
				res.Totals.Divergent, compares)
		}
	})
	// A deadline that has expired on arrival 503s every query however fast
	// the host is, so the same gate must fail.
	t.Run("degraded", func(t *testing.T) {
		t.Parallel()
		degraded := replica(t, fixture, serve.Config{QueryTimeout: time.Nanosecond})
		if code, out := run(t, "-target", degraded, "-scenario", scenarioFile, "-scale", "0.1", "-duration", "1s",
			"-ingest-source", corpus, "-check", sloBaseline, "-q"); code != 1 {
			t.Errorf("degraded replica: exit %d, want the SLO failure 1:\n%s", code, out)
		}
	})
	if code, out := run(t, "-scenario", scenarioFile); code != 2 || !strings.Contains(out, "need -target") {
		t.Errorf("no -target: exit %d, want the usage error 2:\n%s", code, out)
	}
}
