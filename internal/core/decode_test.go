package core

import (
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"testing"

	"iolayers/internal/darshan"
	"iolayers/internal/darshan/logfmt"
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

// TestDecoderReuseAllocs pins what reuse is for: once warm, a decoder
// allocates per log no more than the strings the log carries — paths, the
// executable, metadata keys and values — and nothing for its records,
// counters, maps or sections.
func TestDecoderReuseAllocs(t *testing.T) {
	raws := corpusEntries(t)
	lim := logfmt.DefaultLimits()
	strs := 0
	for _, raw := range raws {
		log, err := logfmt.ReadWithLimits(bytes.NewReader(raw), lim)
		if err != nil {
			t.Fatal(err)
		}
		strs += stringsIn(log)
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
	if perPass > float64(strs+len(raws)/100) {
		t.Errorf("a warm decoder makes %v allocations over %d logs, more than their %d strings",
			perPass, len(raws), strs)
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
