package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"iolayers/internal/core"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/report"
	"iolayers/internal/serve"
)

// TestMain makes the test binary double as iorouter: the test re-executes
// it with runMainEnv set, and then it is the router, not the tests — so the
// test drives the real main() without a `go build`.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "IOROUTER_TEST_RUN_MAIN"

// The router binary over three in-process replicas: its flags parse, its
// key edge turns a keyless request away, a routed ingest lands on rf=2
// owners and renders what `ioanalyze -format json` renders, its prober
// benches a replica whose /readyz says 503 and readmits it once it says
// 200, and SIGTERM drains to exit 0. Every wait is bounded, so a broken
// router fails the test instead of hanging it.
func TestRouterBinary(t *testing.T) {
	src, err := filepath.Abs(filepath.Join("..", "..", "internal", "darshan", "logfmt", "testdata", "golden_v2.darshan"))
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := core.Ingest(context.Background(), systems.ByName("summit"), src, core.IngestOptions{})
	var want bytes.Buffer
	if err == nil {
		err = report.Render(&want, rep, report.Options{Format: report.FormatJSON})
	}
	if err != nil {
		t.Fatal(err)
	}

	addrFile := filepath.Join(t.TempDir(), "router.addr")
	args := []string{"-listen", "127.0.0.1:0", "-addr-file", addrFile, "-apikey", "testkey=edge:1000:1000",
		"-replication", "2", "-probe-every", "100ms", "-probe-timeout", "500ms", "-attempt-timeout", "2s",
		"-breaker-threshold", "2", "-breaker-open", "200ms"}
	// While notReady is set, the first replica's /readyz answers 503.
	var notReady atomic.Bool
	var flaky string
	for i := 0; i < 3; i++ {
		h := serve.New(serve.Config{}).Handler()
		if i == 0 {
			next := h
			h = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				if req.URL.Path == "/readyz" && notReady.Load() {
					w.WriteHeader(http.StatusServiceUnavailable)
					return
				}
				next.ServeHTTP(w, req)
			})
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		args = append(args, "-replica", srv.Listener.Addr().String())
		if i == 0 {
			flaky = srv.Listener.Addr().String()
		}
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	// The race runtime sleeps a second before exiting unless told not to.
	cmd.Env = append(os.Environ(), runMainEnv+"=1", "GORACE=atexit_sleep_ms=0 "+os.Getenv("GORACE"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() {
		cmd.Wait()
		close(exited)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill() // an error only says it had already exited
		if <-exited; t.Failed() {
			t.Logf("iorouter stderr:\n%s", stderr.Bytes())
		}
	})

	// until checks cond every 5 ms, and fails the test if the router exits
	// or 15 s pass before cond holds.
	until := func(what string, cond func() bool) {
		t.Helper()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		timeout := time.After(15 * time.Second)
		for !cond() {
			select {
			case <-exited:
				t.Fatalf("iorouter exited %d before %s", cmd.ProcessState.ExitCode(), what)
			case <-timeout:
				t.Fatalf("15s passed before %s", what)
			case <-tick.C:
			}
		}
	}
	var addr []byte
	// WriteFile is not atomic: the trailing newline says it finished.
	until("it wrote its address", func() bool {
		addr, _ = os.ReadFile(addrFile)
		return bytes.HasSuffix(addr, []byte("\n"))
	})
	do := func(method, path, key, body string) (int, []byte) {
		req, _ := http.NewRequest(method, "http://"+strings.TrimSpace(string(addr))+path, strings.NewReader(body))
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		resp, err := (&http.Client{Timeout: 15 * time.Second}).Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	if code, body := do(http.MethodGet, "/v1/datasets", "", ""); code != http.StatusUnauthorized {
		t.Errorf("keyless request: %d %s, want 401", code, body)
	}
	ingest, _ := json.Marshal(map[string]string{"dataset": "golden", "system": "summit", "source": src})
	code, body := do(http.MethodPost, "/v1/ingest", "testkey", string(ingest))
	var fan struct{ Replicas []struct{ Replica string } }
	if err := json.Unmarshal(body, &fan); err != nil || code != http.StatusOK {
		t.Fatalf("routed ingest: %d %s", code, body)
	}
	if len(fan.Replicas) != 2 {
		t.Errorf("the ingest landed on %d replicas, want 2 (rf=2)", len(fan.Replicas))
	}
	if code, body := do(http.MethodGet, "/v1/report/golden?format=json", "testkey", ""); code != http.StatusOK || !bytes.Equal(body, want.Bytes()) {
		t.Errorf("routed report: %d, want 200 with the ioanalyze render:\n got %s\nwant %s", code, body, want.Bytes())
	}

	// Only the prober reads /readyz, so only a running prober benches the
	// replica and lets it back in.
	healthy := func() bool {
		code, body := do(http.MethodGet, "/v1/cluster", "testkey", "")
		var doc struct {
			Replicas []struct {
				Name    string
				Healthy bool
			}
		}
		if err := json.Unmarshal(body, &doc); err != nil || code != http.StatusOK {
			t.Fatalf("/v1/cluster: %d %s", code, body)
		}
		for _, r := range doc.Replicas {
			if r.Name == flaky {
				return r.Healthy
			}
		}
		t.Fatalf("/v1/cluster does not list %s: %s", flaky, body)
		return false
	}
	notReady.Store(true)
	until("the prober benched "+flaky, func() bool { return !healthy() })
	notReady.Store(false)
	until("the prober readmitted "+flaky, healthy)

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if code := cmd.ProcessState.ExitCode(); code != 0 {
			t.Errorf("exit %d after SIGTERM, want a graceful 0", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("iorouter still running 15s after SIGTERM")
	}
}
