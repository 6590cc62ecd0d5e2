package cluster

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestKeyringValidation(t *testing.T) {
	k := NewKeyring(nil)
	if err := k.Add("", Tenant{Name: "t", Rate: 1}); err == nil {
		t.Error("empty key accepted")
	}
	if err := k.Add("k", Tenant{Rate: 1}); err == nil {
		t.Error("empty tenant accepted")
	}
	if err := k.Add("k", Tenant{Name: "t", Rate: 0}); err == nil {
		t.Error("zero rate accepted")
	}
	for _, burst := range []float64{math.NaN(), math.Inf(1)} {
		if err := NewKeyring(nil).Add("k", Tenant{Name: "t", Rate: 1, Burst: burst}); err == nil {
			t.Errorf("burst %v accepted", burst)
		}
	}
	if err := k.Add("k", Tenant{Name: "t", Rate: 5}); err != nil {
		t.Fatal(err)
	}
	if err := k.Add("k", Tenant{Name: "t2", Rate: 5}); err == nil {
		t.Error("duplicate key accepted")
	}
	if k.Len() != 1 {
		t.Errorf("Len = %d, want 1", k.Len())
	}
	var nilRing *Keyring
	if nilRing.Len() != 0 {
		t.Error("nil keyring Len != 0")
	}
}

func TestKeyringTokenBucket(t *testing.T) {
	clock := newFakeClock()
	k := NewKeyring(clock.now)
	// 2 req/s, burst of 3.
	if err := k.Add("secret", Tenant{Name: "acme", Rate: 2, Burst: 3}); err != nil {
		t.Fatal(err)
	}

	if _, _, err := k.Check("nope"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("unknown key error = %v", err)
	}

	// The bucket starts full: burst requests pass back to back.
	for i := 0; i < 3; i++ {
		tenant, wait, err := k.Check("secret")
		if err != nil || wait != 0 {
			t.Fatalf("burst request %d: tenant=%q wait=%v err=%v", i, tenant, wait, err)
		}
		if tenant != "acme" {
			t.Fatalf("tenant = %q", tenant)
		}
	}
	// Empty: the fourth is limited, with a sensible Retry-After (1 token
	// at 2/s = 500ms).
	_, wait, err := k.Check("secret")
	if err != nil || wait <= 0 {
		t.Fatalf("drained bucket: wait=%v err=%v", wait, err)
	}
	if wait > time.Second {
		t.Errorf("retry-after %v too pessimistic for rate 2/s", wait)
	}

	// Refill at the rate: after 1s, 2 tokens are back.
	clock.advance(time.Second)
	for i := 0; i < 2; i++ {
		if _, wait, _ := k.Check("secret"); wait != 0 {
			t.Fatalf("refilled request %d still limited (wait %v)", i, wait)
		}
	}
	if _, wait, _ := k.Check("secret"); wait == 0 {
		t.Fatal("third request after 1s refill at 2/s passed")
	}

	// Refill caps at burst, not unbounded.
	clock.advance(time.Hour)
	passed := 0
	for i := 0; i < 10; i++ {
		if _, wait, _ := k.Check("secret"); wait == 0 {
			passed++
		}
	}
	if passed != 3 {
		t.Errorf("after a long idle, %d requests passed, want burst=3", passed)
	}
}

func TestParseKeySpec(t *testing.T) {
	key, tenant, err := ParseKeySpec("s3cr3t=acme:2.5:10")
	if err != nil {
		t.Fatal(err)
	}
	if key != "s3cr3t" || tenant.Name != "acme" || tenant.Rate != 2.5 || tenant.Burst != 10 {
		t.Errorf("parsed %q / %+v", key, tenant)
	}
	// Burst defaults to max(rate, 1).
	_, tenant, err = ParseKeySpec("k=t:4")
	if err != nil || tenant.Burst != 4 {
		t.Errorf("default burst = %v (err %v), want 4", tenant.Burst, err)
	}
	_, tenant, err = ParseKeySpec("k=t:0.5")
	if err != nil || tenant.Burst != 1 {
		t.Errorf("default burst for slow tenant = %v (err %v), want 1", tenant.Burst, err)
	}
	for _, bad := range badKeySpecs {
		if _, _, err := ParseKeySpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// badKeySpecs are key specs ParseKeySpec refuses; FuzzParseKeySpec starts
// from them.
var badKeySpecs = []string{
	"", "noequals", "=t:1", "k=", "k=t", "k=t:abc", "k=t:1:x", "k=t:1:2:3", "k=:1",
	// A NaN or infinite burst turned the key's rate limit off.
	"k=t:1:NaN", "k=t:1:+Inf", "k=t:1:-Inf",
	"k=t:NaN", "k=t:+Inf", "k=t:0", "k=t:-1",
}

// FuzzParseKeySpec: no spec panics ParseKeySpec, every accepted one has a
// positive finite rate and a finite burst, and the keyring takes it.
func FuzzParseKeySpec(f *testing.F) {
	f.Add("s3cr3t=acme:2.5:10")
	f.Add("k=t:4")
	f.Add("k=t:4:0")
	for _, s := range badKeySpecs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		key, tenant, err := ParseKeySpec(spec)
		if err != nil {
			return
		}
		if !(tenant.Rate > 0) || math.IsInf(tenant.Rate, 0) || math.IsNaN(tenant.Burst) || math.IsInf(tenant.Burst, 0) {
			t.Fatalf("ParseKeySpec(%q) accepted %+v", spec, tenant)
		}
		if err := NewKeyring(nil).Add(key, tenant); err != nil {
			t.Fatalf("ParseKeySpec(%q) accepted %+v, which Add refuses: %v", spec, tenant, err)
		}
	})
}

func TestLoadKeyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys")
	content := "# production keys\n\nalpha=acme:10\nbeta=globex:2:5\n"
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	k := NewKeyring(nil)
	if err := k.LoadKeyFile(path); err != nil {
		t.Fatal(err)
	}
	if k.Len() != 2 {
		t.Fatalf("loaded %d keys, want 2", k.Len())
	}
	if tenant, _, err := k.Check("beta"); err != nil || tenant != "globex" {
		t.Errorf("beta → %q, %v", tenant, err)
	}
	// A bad line reports its position.
	bad := filepath.Join(t.TempDir(), "badkeys")
	os.WriteFile(bad, []byte("ok=t:1\nbroken\n"), 0o600)
	if err := k.LoadKeyFile(bad); err == nil {
		t.Error("bad key file accepted")
	}
}
