package logfmt

import (
	"bufio"
	"bytes"
	"compress/zlib"
	"fmt"
	"io"
	"sync"
)

// Codec pooling. A campaign-scale ingest touches millions of logs, each a
// handful of sections, and every section used to pay for a fresh
// bytes.Buffer plus a fresh zlib writer — the deflate state alone is tens of
// kilobytes per codec. All of that state is Reset-able, so writers share it
// through the pools below, and ReadWithLimits borrows its section scratch
// and inflate tables the same way: each call acquires one pooled state and
// the per-section cost amortizes to (almost) zero steady-state allocations.
// A Decoder keeps its own state instead, along with the log it decodes into.

// maxPooledBuf caps the scratch capacity a pool will retain. A one-off
// giant section should not pin its buffer forever.
const maxPooledBuf = 8 << 20

// bufPool holds scratch byte buffers shared by section encoding,
// compression, and archive framing.
var bufPool = sync.Pool{New: func() any { bufNews.Add(1); return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	bufGets.Add(1)
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// zlibWriterPool holds Reset-able deflate state. Entries are created
// against io.Discard and re-targeted with Reset before every use.
var zlibWriterPool = sync.Pool{New: func() any { zlibNews.Add(1); return zlib.NewWriter(io.Discard) }}

func getZlibWriter(w io.Writer) *zlib.Writer {
	zlibGets.Add(1)
	zw := zlibWriterPool.Get().(*zlib.Writer)
	zw.Reset(w)
	return zw
}

func putZlibWriter(zw *zlib.Writer) { zlibWriterPool.Put(zw) }

// bufioWriterPool holds the per-Write output buffer. Writes into an
// in-memory *bytes.Buffer (the archive Append path and every benchmark)
// skip it entirely — buffering a buffer is pure overhead.
var bufioWriterPool = sync.Pool{New: func() any { bwNews.Add(1); return bufio.NewWriter(io.Discard) }}

// buffered returns a buffered view of w plus a flush func. The release of
// the pooled bufio.Writer happens inside flush, so callers must call it
// exactly once on the success path (error paths may skip it; the writer is
// re-pooled by the next Get's Reset).
func buffered(w io.Writer) (io.Writer, func() error) {
	if bb, ok := w.(*bytes.Buffer); ok {
		return bb, func() error { return nil }
	}
	bwGets.Add(1)
	bw := bufioWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw, func() error {
		err := bw.Flush()
		bw.Reset(io.Discard) // drop the reference to w before pooling
		bufioWriterPool.Put(bw)
		if err != nil {
			return fmt.Errorf("logfmt: flushing: %w", err)
		}
		return nil
	}
}

// readState is the reusable scratch one decode threads through its
// sections: the stream position, the section header, the raw compressed
// bytes, the inflated payload, and the inflater's tables. Payload slices
// handed out by readSection are valid only until the next readSection call;
// every decoder copies what it keeps (strings via string(), numbers by
// value), so nothing escapes.
type readState struct {
	cr         countReader
	hdr        [14]byte
	compressed []byte
	payload    []byte
	inf        inflater
}

var readStatePool = sync.Pool{New: func() any { readNews.Add(1); return new(readState) }}

func getReadState() *readState {
	readGets.Add(1)
	return readStatePool.Get().(*readState)
}

func putReadState(rs *readState) {
	if !rs.outgrown() {
		readStatePool.Put(rs)
	}
}

// outgrown reports whether a section grew the scratch past what a pool or
// a long-lived Decoder should keep.
func (rs *readState) outgrown() bool {
	return cap(rs.compressed) > maxPooledBuf || cap(rs.payload) > maxPooledBuf
}

// grow returns s resized to n bytes, reallocating only when capacity is
// insufficient. Contents are unspecified.
func grow(s []byte, n int) []byte {
	if cap(s) < n {
		return make([]byte, n)
	}
	return s[:n]
}
