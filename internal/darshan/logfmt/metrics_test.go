package logfmt

import (
	"errors"
	"fmt"
	"testing"

	"iolayers/internal/obsv"
)

func TestKindOf(t *testing.T) {
	for _, k := range []ErrorKind{KindTruncated, KindCorrupt, KindLimitExceeded, KindBadMagic, KindBadVersion} {
		err := fmt.Errorf("wrapped: %w", decodeErrf(k, "module", 42, "boom"))
		got, ok := KindOf(err)
		if !ok || got != k {
			t.Errorf("KindOf(%v) = %v, %v", err, got, ok)
		}
	}
	if _, ok := KindOf(errors.New("plain I/O error")); ok {
		t.Error("plain error classified as a decode error")
	}
	if _, ok := KindOf(nil); ok {
		t.Error("nil classified as a decode error")
	}
}

func TestPublishMetrics(t *testing.T) {
	PublishMetrics(nil) // nil registry must be a no-op

	// Drive the pools at least once so gets are non-zero no matter what
	// ran before this test.
	b := getBuf()
	putBuf(b)
	rs := getReadState()
	putReadState(rs)

	r := obsv.New()
	PublishMetrics(r)
	snap := r.Snapshot()
	names := map[string]float64{}
	for _, g := range snap.Gauges {
		names[g.Name] = g.Value
	}
	for _, want := range []string{
		"logfmt.pool.buf.gets", "logfmt.pool.buf.hit_rate",
		"logfmt.pool.readstate.gets", "logfmt.pool.readstate.hit_rate",
		"logfmt.pool.zlib_writer.gets",
	} {
		if _, ok := names[want]; !ok {
			t.Errorf("PublishMetrics missing gauge %q; have %v", want, names)
		}
	}
	if names["logfmt.pool.buf.gets"] < 1 {
		t.Errorf("buf gets = %v, want ≥ 1", names["logfmt.pool.buf.gets"])
	}
	if hr := names["logfmt.pool.buf.hit_rate"]; hr < 0 || hr > 1 {
		t.Errorf("hit rate %v outside [0,1]", hr)
	}
	// Pool tallies must never land in the deterministic slice: a stripped
	// snapshot carries none of them.
	if stripped := r.Snapshot().StripVolatile(); len(stripped.Gauges) != 0 {
		t.Errorf("pool gauges survived StripVolatile: %+v", stripped.Gauges)
	}
}
