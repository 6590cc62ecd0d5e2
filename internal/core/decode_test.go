package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"iolayers/internal/analysis"
	"iolayers/internal/darshan"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/obsv"
)

// corpusEntries returns the shared corpus archive's raw entries.
func corpusEntries(t *testing.T) [][]byte {
	t.Helper()
	_, archive, count := buildCorpus(t)
	f, err := os.Open(archive)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ar, err := logfmt.NewArchiveReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var raws [][]byte
	for {
		raw, err := ar.NextRaw()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, bytes.Clone(raw))
	}
	if len(raws) != count {
		t.Fatalf("archive holds %d entries, corpus has %d logs", len(raws), count)
	}
	return raws
}

// TestDecoderReuseMatchesRead decodes every corpus entry through one reused
// decoder, as an ingest worker does, and through ReadWithLimits: the logs
// must be identical. Every seventh entry is preceded by a damaged copy of
// itself — truncated in its last section, or with a byte flipped — which
// must fail without leaving anything behind for the entry after it.
func TestDecoderReuseMatchesRead(t *testing.T) {
	lim := logfmt.DefaultLimits()
	var d itemDecoder
	for i, raw := range corpusEntries(t) {
		if i%7 == 3 {
			bad := raw[:len(raw)-3]
			if i%2 == 0 {
				bad = bytes.Clone(raw)
				bad[len(bad)/2] ^= 0x5a
			}
			if _, err := d.decode(lim, ingestItem{raw: bad}); err == nil {
				t.Fatalf("entry %d: damaged copy decoded", i)
			}
		}
		got, err := d.decode(lim, ingestItem{raw: raw})
		if err != nil {
			t.Fatalf("entry %d: reused decoder: %v", i, err)
		}
		want, err := logfmt.ReadWithLimits(bytes.NewReader(raw), lim)
		if err != nil {
			t.Fatalf("entry %d: ReadWithLimits: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("entry %d: reused decoder's log differs from ReadWithLimits'", i)
		}
	}
}

// TestEveryBitFlipFails flips each bit of a sample of corpus logs, decoding
// every copy through one reused decoder as an ingest worker does. No flip
// may decode: one in the magic is bad-magic, one in the version bad-version,
// and any other is corrupt, wherever it lands.
func TestEveryBitFlipFails(t *testing.T) {
	raws := corpusEntries(t)
	lim := logfmt.DefaultLimits()
	var d itemDecoder
	for i := 0; i < len(raws); i += len(raws)/32 + 1 {
		raw := raws[i]
		for off := range raw {
			want := logfmt.KindCorrupt
			switch {
			case off < 4:
				want = logfmt.KindBadMagic
			case off < 6:
				want = logfmt.KindBadVersion
			}
			for bit := 0; bit < 8; bit++ {
				bad := bytes.Clone(raw)
				bad[off] ^= 1 << bit
				_, err := d.decode(lim, ingestItem{raw: bad})
				if kind, ok := logfmt.KindOf(err); !ok || kind != want {
					t.Fatalf("entry %d, byte %d of %d, bit %d: error %v, want %v",
						i, off, len(raw), bit, err, want)
				}
			}
		}
	}
}

// freshNames keeps TestDecoderReuseAllocs' measured maps on the heap, where
// the decoder's live.
var freshNames map[darshan.RecordID]string

// TestDecoderReuseAllocs pins what reuse is for: once warm, a decoder
// allocates per log no more than the strings the log carries — paths, the
// executable, metadata keys and values — and nothing for its records,
// counters, maps or sections. The one exception is a name table too large
// to keep (darshan.ReuseMap): the map it grew into is replaced, and the
// budget adds what growing a replacement to that size costs.
func TestDecoderReuseAllocs(t *testing.T) {
	raws := corpusEntries(t)
	lim := logfmt.DefaultLimits()
	strs, fresh := 0, 0.0
	for _, raw := range raws {
		log, err := logfmt.ReadWithLimits(bytes.NewReader(raw), lim)
		if err != nil {
			t.Fatal(err)
		}
		strs += stringsIn(log)
		// ReuseMap empties a map it keeps and leaves one it replaces as is.
		kept := maps.Clone(log.Names)
		if darshan.ReuseMap(kept); len(kept) > 0 {
			fresh += testing.AllocsPerRun(1, func() {
				freshNames = darshan.ReuseMap(kept)
				for id := range log.Names {
					freshNames[id] = ""
				}
			})
		}
	}
	var d logfmt.Decoder
	var br bytes.Reader
	decode := func(raw []byte) {
		br.Reset(raw)
		if _, err := d.Decode(&br, lim); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun's first, unmeasured pass warms the decoder.
	perPass := testing.AllocsPerRun(3, func() {
		for _, raw := range raws {
			decode(raw)
		}
	})
	// The count covers the whole process, so a handful of allocations by
	// the runtime or other goroutines is tolerated: under one per 100 logs.
	if perPass > float64(strs)+fresh+float64(len(raws)/100) {
		t.Errorf("a warm decoder makes %v allocations over %d logs, more than their %d strings and the %v of replacing outsized name tables",
			perPass, len(raws), strs, fresh)
	}
}

// stringsIn counts the non-empty strings a log holds.
func stringsIn(log *darshan.Log) int {
	n := 0
	count := func(s string) {
		if s != "" {
			n++
		}
	}
	count(log.Job.Exe)
	for k, v := range log.Job.Metadata {
		count(k)
		count(v)
	}
	for _, p := range log.Names {
		count(p)
	}
	return n
}

// TestIngestAllocsPerEntry pins what the driver itself costs per archive
// entry: nothing. Ingesting 2N entries at one worker may allocate more than
// ingesting N only by what walking, decoding and folding the extra N cost
// on their own — logfmt.ArchiveReader's framing walk, a fresh
// logfmt.Decoder and aggregator, as a worker's — plus half an allocation
// per entry of slack for the runtime's own. Metrics on cost nothing more
// per entry: the worker's shard tallies are plain memory. The framing walk
// itself allocates nothing per entry: its frame length is read into the
// reader's own array.
func TestIngestAllocsPerEntry(t *testing.T) {
	raws := corpusEntries(t)
	n := len(raws) / 2
	sys := systems.NewSummit()
	lim := logfmt.DefaultLimits()

	write := func(entries [][]byte) string {
		path := filepath.Join(t.TempDir(), "a.dgar")
		if err := writeArchive(path, entries); err != nil {
			t.Fatal(err)
		}
		return path
	}
	ingestAllocs := func(path string, want int, metrics bool) float64 {
		return testing.AllocsPerRun(3, func() {
			opts := IngestOptions{Workers: 1}
			if metrics {
				opts.Metrics = obsv.New()
			}
			if _, res, err := IngestArchive(context.Background(), sys, path, opts); err != nil || res.Parsed != want {
				t.Fatalf("parsed %d of %d: %v", res.Parsed, want, err)
			}
		})
	}
	foldAllocs := func(path string) float64 {
		return testing.AllocsPerRun(3, func() {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ar, err := logfmt.NewArchiveReaderWithLimits(f, lim)
			if err != nil {
				t.Fatal(err)
			}
			var d logfmt.Decoder
			var br bytes.Reader
			agg := analysis.NewAggregator(sys)
			for {
				raw, err := ar.NextRaw()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				br.Reset(raw)
				log, err := d.Decode(&br, lim)
				if err != nil {
					t.Fatal(err)
				}
				agg.AddLog(log)
			}
		})
	}
	walkAllocs := func(path string) float64 {
		return testing.AllocsPerRun(3, func() {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ar, err := logfmt.NewArchiveReaderWithLimits(f, lim)
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, err := ar.NextRaw(); errors.Is(err, io.EOF) {
					break
				} else if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	half, whole := write(raws[:n]), write(raws[:2*n])
	driver := (ingestAllocs(whole, 2*n, false) - ingestAllocs(half, n, false)) / float64(n)
	metered := (ingestAllocs(whole, 2*n, true) - ingestAllocs(half, n, true)) / float64(n)
	fold := (foldAllocs(whole) - foldAllocs(half)) / float64(n)
	walk := (walkAllocs(whole) - walkAllocs(half)) / float64(n)
	t.Logf("per entry: ingest %.3f (metrics on %.3f), walk+decode+fold %.3f, walk %.3f allocations", driver, metered, fold, walk)
	if driver > fold+0.5 {
		t.Errorf("IngestArchive allocates %.2f per entry against walk+decode+fold's %.2f: the driver adds %.2f",
			driver, fold, driver-fold)
	}
	if metered > driver+0.5 {
		t.Errorf("IngestArchive with metrics on allocates %.2f per entry against %.2f with them off: metrics add %.2f",
			metered, driver, metered-driver)
	}
	if walk > 0.05 {
		t.Errorf("the archive's framing walk allocates %.2f per entry, want none", walk)
	}
}
