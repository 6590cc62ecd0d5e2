package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A tenant configured with zero (or negative) burst must still be able
// to make progress: the bucket clamps to depth 1, admitting exactly one
// request per 1/rate interval instead of deadlocking at "always empty".
func TestKeyringZeroBurstClamps(t *testing.T) {
	clock := newFakeClock()
	k := NewKeyring(clock.Now)
	if err := k.Add("k0", Tenant{Name: "t", Rate: 2, Burst: 0}); err != nil {
		t.Fatal(err)
	}
	if err := k.Add("kneg", Tenant{Name: "t2", Rate: 2, Burst: -3}); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"k0", "kneg"} {
		if _, wait, err := k.Check(key); err != nil || wait != 0 {
			t.Fatalf("%s: first request wait=%v err=%v, want immediate pass", key, wait, err)
		}
		if _, wait, _ := k.Check(key); wait <= 0 {
			t.Fatalf("%s: second request passed a depth-1 bucket", key)
		}
	}
	// The clamp also applies through the flag-spec path.
	_, tenant, err := ParseKeySpec("k=t:4:0")
	if err != nil {
		t.Fatal(err)
	}
	k2 := NewKeyring(clock.Now)
	if err := k2.Add("k", tenant); err != nil {
		t.Fatal(err)
	}
	if _, wait, err := k2.Check("k"); err != nil || wait != 0 {
		t.Fatalf("explicit zero burst: first request wait=%v err=%v", wait, err)
	}
}

// Retry-After must be exact at exact exhaustion: with the bucket at
// precisely zero tokens, the wait is precisely one token's refill time —
// not zero (which would invite a tight retry loop) and not padded.
func TestKeyringRetryAfterAtExactExhaustion(t *testing.T) {
	clock := newFakeClock()
	k := NewKeyring(clock.Now)
	if err := k.Add("key", Tenant{Name: "acme", Rate: 2, Burst: 2}); err != nil {
		t.Fatal(err)
	}
	// Drain the full burst back to back: tokens land on exactly 0.
	for i := 0; i < 2; i++ {
		if _, wait, _ := k.Check("key"); wait != 0 {
			t.Fatalf("drain request %d limited early (wait %v)", i, wait)
		}
	}
	if _, wait, _ := k.Check("key"); wait != 500*time.Millisecond {
		t.Fatalf("wait at exact exhaustion = %v, want exactly 500ms (1 token at 2/s)", wait)
	}
	// A partial refill shrinks the wait by exactly the refilled fraction:
	// 250ms at 2/s restores 0.5 tokens, leaving 0.5 to wait for = 250ms.
	clock.advance(250 * time.Millisecond)
	if _, wait, _ := k.Check("key"); wait != 250*time.Millisecond {
		t.Fatalf("wait after 250ms refill = %v, want exactly 250ms", wait)
	}
	// Note the limited Checks above must not themselves consume tokens:
	// after the remaining 250ms the bucket holds the full token and passes.
	clock.advance(250 * time.Millisecond)
	if _, wait, _ := k.Check("key"); wait != 0 {
		t.Fatalf("request after full refill limited (wait %v) — a limited request consumed tokens", wait)
	}
}

// Two tenants behind one router (and therefore one backend pool) must
// throttle independently: tenant A exhausting its bucket yields 429s for
// A only, B keeps flowing, and A's rejected requests never reach the
// backend (the edge sheds them before any replica is dialed).
func TestTenantsDoNotCrossThrottle(t *testing.T) {
	var backendHits atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backendHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"schema_version":1,"datasets":[]}`)
	}))
	defer backend.Close()

	keyring := NewKeyring(nil)
	if err := keyring.Add("key-a", Tenant{Name: "alpha", Rate: 0.001, Burst: 2}); err != nil {
		t.Fatal(err)
	}
	if err := keyring.Add("key-b", Tenant{Name: "beta", Rate: 1000, Burst: 1000}); err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(Config{
		Replicas: []string{backend.URL},
		Keyring:  keyring,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ts := httptest.NewServer(router.Handler())
	defer ts.Close()

	get := func(key string) (int, string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/datasets", nil)
		req.Header.Set("X-API-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}

	// Exhaust alpha's burst of 2.
	for i := 0; i < 2; i++ {
		if code, _ := get("key-a"); code != http.StatusOK {
			t.Fatalf("alpha request %d: %d", i, code)
		}
	}
	hitsBefore := backendHits.Load()
	code, retryAfter := get("key-a")
	if code != http.StatusTooManyRequests {
		t.Fatalf("exhausted alpha got %d, want 429", code)
	}
	if retryAfter == "" || retryAfter == "0" {
		t.Errorf("throttled response Retry-After = %q, want a positive hint", retryAfter)
	}
	if got := backendHits.Load(); got != hitsBefore {
		t.Errorf("throttled request reached the backend (%d hits, want %d)", got, hitsBefore)
	}

	// Beta is untouched by alpha's exhaustion — across many requests.
	for i := 0; i < 50; i++ {
		if code, _ := get("key-b"); code != http.StatusOK {
			t.Fatalf("beta request %d cross-throttled: %d", i, code)
		}
	}
	// And alpha is still limited (beta's traffic refilled nothing for it).
	if code, _ := get("key-a"); code != http.StatusTooManyRequests {
		t.Errorf("alpha recovered from beta's traffic: %d", code)
	}
}
