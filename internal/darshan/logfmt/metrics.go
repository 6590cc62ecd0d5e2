package logfmt

import (
	"errors"
	"sync/atomic"

	"iolayers/internal/obsv"
)

// Self-instrumentation for the codec pools. The tallies are package globals
// (the pools are), monotone, and scheduling-dependent: whether a Get hits
// pooled state depends on GC timing and goroutine interleaving. They are
// therefore published as gauges — volatile by definition — never as
// deterministic counters.
var (
	bufGets  atomic.Int64
	bufNews  atomic.Int64
	readGets atomic.Int64
	readNews atomic.Int64
	zlibGets atomic.Int64
	zlibNews atomic.Int64
)

// PublishMetrics copies the codec-pool tallies into the registry as
// "logfmt.pool.*" gauges: raw get counts plus the steady-state hit rate
// (1 − news/gets). A nil registry is a no-op.
func PublishMetrics(r *obsv.Registry) {
	if r == nil {
		return
	}
	pub := func(name string, gets, news int64) {
		r.Gauge("logfmt.pool." + name + ".gets").Set(float64(gets))
		r.Gauge("logfmt.pool." + name + ".hit_rate").Set(hitRate(gets, news))
	}
	pub("buf", bufGets.Load(), bufNews.Load())
	pub("readstate", readGets.Load(), readNews.Load())
	pub("zlib_writer", zlibGets.Load(), zlibNews.Load())
}

func hitRate(gets, news int64) float64 {
	if gets == 0 {
		return 0
	}
	return 1 - float64(news)/float64(gets)
}

// KindOf classifies err by its DecodeError kind. The second return is false
// when err carries no *DecodeError (I/O errors, context cancellation).
// Ingest layers use this to keep per-run decode-failure counters keyed by
// kind without reaching into package internals.
func KindOf(err error) (ErrorKind, bool) {
	var de *DecodeError
	if errors.As(err, &de) {
		return de.Kind, true
	}
	return 0, false
}
