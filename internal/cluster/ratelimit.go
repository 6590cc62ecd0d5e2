package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrUnknownKey is returned by Keyring.Check for a key no tenant owns.
var ErrUnknownKey = errors.New("cluster: unknown API key")

// Tenant is one paying (or at least accounted) consumer of the cluster:
// a name plus a token-bucket rate limit applied at the router's edge.
type Tenant struct {
	// Name identifies the tenant in metrics and errors.
	Name string
	// Rate is the sustained request rate in requests/second.
	Rate float64
	// Burst is the bucket depth — how many requests may land at once
	// after an idle period.
	Burst float64
}

// bucket is one tenant's live token bucket.
type bucket struct {
	Tenant
	tokens float64
	last   time.Time
}

// Keyring maps API keys to tenants and enforces each tenant's token
// bucket. A nil or empty Keyring means open access (the router skips the
// auth edge entirely). Safe for concurrent use.
type Keyring struct {
	now func() time.Time

	mu   sync.Mutex
	keys map[string]*bucket
}

// NewKeyring builds an empty keyring. now is the clock (nil means
// time.Now); tests inject a fake for deterministic refill.
func NewKeyring(now func() time.Time) *Keyring {
	if now == nil {
		now = time.Now
	}
	return &Keyring{now: now, keys: map[string]*bucket{}}
}

// Add registers key for tenant t. Multiple keys may share a tenant name
// but each key gets its own bucket (a leaked key can be revoked without
// re-keying the tenant).
func (k *Keyring) Add(key string, t Tenant) error {
	if key == "" {
		return fmt.Errorf("cluster: empty API key")
	}
	if t.Name == "" {
		return fmt.Errorf("cluster: API key needs a tenant name")
	}
	if t.Rate <= 0 || math.IsNaN(t.Rate) || math.IsInf(t.Rate, 0) {
		return fmt.Errorf("cluster: tenant %q rate %v must be a positive rate/s", t.Name, t.Rate)
	}
	if math.IsNaN(t.Burst) || math.IsInf(t.Burst, 0) {
		return fmt.Errorf("cluster: tenant %q burst %v must be finite", t.Name, t.Burst)
	}
	if t.Burst < 1 {
		t.Burst = 1
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, dup := k.keys[key]; dup {
		return fmt.Errorf("cluster: duplicate API key")
	}
	k.keys[key] = &bucket{Tenant: t, tokens: t.Burst, last: k.now()}
	return nil
}

// Len returns the number of registered keys.
func (k *Keyring) Len() int {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.keys)
}

// Check spends one token from key's bucket. It returns the tenant name
// and, when the bucket is empty, how long until the next token (the
// Retry-After the caller should surface with its 429). ErrUnknownKey
// means the key is not registered at all.
func (k *Keyring) Check(key string) (tenant string, retryAfter time.Duration, err error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	b, ok := k.keys[key]
	if !ok {
		return "", 0, ErrUnknownKey
	}
	now := k.now()
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(b.Burst, b.tokens+dt*b.Rate)
	}
	b.last = now
	if b.tokens < 1 {
		wait := time.Duration((1 - b.tokens) / b.Rate * float64(time.Second))
		return b.Name, wait, nil
	}
	b.tokens--
	return b.Name, 0, nil
}

// ParseKeySpec parses one "key=tenant:rate:burst" spec (the -apikey
// flag). rate is a positive, finite requests/second; burst is finite and
// defaults to max(rate, 1) when the third field is omitted (Add raises a
// burst below 1 to 1).
func ParseKeySpec(spec string) (string, Tenant, error) {
	key, rest, ok := strings.Cut(spec, "=")
	if !ok || key == "" || rest == "" {
		return "", Tenant{}, fmt.Errorf("cluster: bad key spec %q, want key=tenant:rate[:burst]", spec)
	}
	parts := strings.Split(rest, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return "", Tenant{}, fmt.Errorf("cluster: bad key spec %q, want key=tenant:rate[:burst]", spec)
	}
	if parts[0] == "" {
		return "", Tenant{}, fmt.Errorf("cluster: bad key spec %q: empty tenant name", spec)
	}
	t := Tenant{Name: parts[0]}
	rate, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || !(rate > 0) || math.IsInf(rate, 0) {
		return "", Tenant{}, fmt.Errorf("cluster: bad rate in key spec %q, want a positive finite requests/second", spec)
	}
	t.Rate = rate
	t.Burst = math.Max(rate, 1)
	if len(parts) == 3 {
		burst, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || math.IsNaN(burst) || math.IsInf(burst, 0) {
			return "", Tenant{}, fmt.Errorf("cluster: bad burst in key spec %q, want a finite number", spec)
		}
		t.Burst = burst
	}
	return key, t, nil
}

// LoadKeyFile reads key specs into the keyring from path: one
// "key=tenant:rate[:burst]" per line, blank lines and #-comments ignored.
func (k *Keyring) LoadKeyFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("cluster: opening key file: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, t, err := ParseKeySpec(text)
		if err != nil {
			return fmt.Errorf("cluster: %s:%d: %w", path, line, err)
		}
		if err := k.Add(key, t); err != nil {
			return fmt.Errorf("cluster: %s:%d: %w", path, line, err)
		}
	}
	return sc.Err()
}
