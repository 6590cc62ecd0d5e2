package logfmt

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"io"
	"math/rand/v2"
	"testing"
)

// inflateCorpus returns n bytes that deflate finds work in: runs of a small
// alphabet, random bytes, and copies of earlier stretches from anywhere back
// to the full 32 KiB window.
func inflateCorpus(n int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 1))
	data := make([]byte, 0, n)
	for len(data) < n {
		switch k := 1 + rng.IntN(300); {
		case len(data) > 0 && rng.IntN(3) == 0:
			from := len(data) - 1 - rng.IntN(min(len(data), 32768))
			for i := 0; i < k; i++ {
				data = append(data, data[from+i%(len(data)-from)])
			}
		case rng.IntN(2) == 0:
			for i := 0; i < k; i++ {
				data = append(data, "abcdefgh"[rng.IntN(8)])
			}
		default:
			for i := 0; i < k; i++ {
				data = append(data, byte(rng.Uint32()))
			}
		}
	}
	return data[:n]
}

func zlibCompress(t testing.TB, data []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := zlib.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInflateMatchesZlib round-trips compress/zlib's output at every level
// kind — Huffman-only, stored, fast, default and best — through one reused
// inflater, at sizes that cover an empty stream, a single byte, one maximal
// match, a window that wraps, and several stored blocks.
func TestInflateMatchesZlib(t *testing.T) {
	levels := []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed,
		flate.DefaultCompression, flate.BestCompression}
	sizes := []int{0, 1, 258, 32<<10 + 1, 70 << 10}
	var f inflater
	for _, level := range levels {
		for _, size := range sizes {
			data := inflateCorpus(size, uint64(size))
			src := zlibCompress(t, data, level)
			dst := make([]byte, size)
			if err := f.inflate(dst, src); err != nil {
				t.Fatalf("level %d size %d: %v", level, size, err)
			}
			if !bytes.Equal(dst, data) {
				t.Fatalf("level %d size %d: inflated bytes differ", level, size)
			}
		}
	}
}

// FuzzInflate holds the inflater to compress/zlib: whenever it accepts a
// stream for n bytes, compress/zlib reads the same n bytes from it. And
// whenever compress/zlib inflates a stream to exactly n bytes and checks its
// trailer, the inflater accepts it too, unless the header names a preset
// dictionary, which compress/zlib tolerates for an empty one and the
// inflater always refuses.
func FuzzInflate(f *testing.F) {
	for i, level := range []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed,
		flate.DefaultCompression, flate.BestCompression} {
		for _, size := range []int{0, 1, 40, 700, 5000} {
			data := inflateCorpus(size, uint64(i*size))
			f.Add(zlibCompress(f, data, level), uint32(size))
		}
	}
	for _, sec := range sectionsOf(f, encodeSample(f)) {
		f.Add(bytes.Clone(sec.stream), uint32(sec.size))
	}
	var inf inflater
	f.Fuzz(func(t *testing.T, src []byte, n uint32) {
		n %= 1 << 17
		dst := make([]byte, n)
		err := inf.inflate(dst, src)

		zr, zerr := zlib.NewReader(bytes.NewReader(src))
		want := make([]byte, n)
		if zerr == nil {
			_, zerr = io.ReadFull(zr, want)
		}
		if err == nil {
			if zerr != nil {
				t.Fatalf("inflater accepted a stream compress/zlib refuses: %v", zerr)
			}
			if !bytes.Equal(dst, want) {
				t.Fatal("inflater and compress/zlib disagree on the bytes")
			}
			return
		}
		if zerr != nil || len(src) < 2 || src[1]&0x20 != 0 {
			return
		}
		// compress/zlib read n bytes; it checks the trailer only once the
		// stream ends there.
		var one [1]byte
		if m, rerr := zr.Read(one[:]); m == 0 && rerr == io.EOF {
			t.Fatalf("inflater refused a stream compress/zlib accepts whole: %v", err)
		}
	})
}

// streamWriter writes a DEFLATE bit stream after a zlib header, first bit
// lowest, as RFC 1951 packs it.
type streamWriter struct {
	out []byte
	acc uint64
	n   uint
}

func newStream(cmf, flg byte) *streamWriter { return &streamWriter{out: []byte{cmf, flg}} }

// bits writes the n low bits of v, lowest first: header fields and extra
// bits.
func (w *streamWriter) bits(v uint64, n uint) *streamWriter {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
	return w
}

// code writes an n-bit Huffman code, highest bit first.
func (w *streamWriter) code(c uint64, n uint) *streamWriter {
	for i := n; i > 0; i-- {
		w.bits(c>>(i-1)&1, 1)
	}
	return w
}

// dynamic starts a final dynamic block declaring nlit and ndist codes and
// the code-length code lengths given in storage order.
func (w *streamWriter) dynamic(nlit, ndist int, clens ...uint64) *streamWriter {
	w.bits(1, 1).bits(2, 2).bits(uint64(nlit-257), 5).bits(uint64(ndist-1), 5).bits(uint64(len(clens)-4), 4)
	for _, l := range clens {
		w.bits(l, 3)
	}
	return w
}

func (w *streamWriter) bytes() []byte {
	if w.n > 0 {
		w.out = append(w.out, byte(w.acc))
	}
	return append(w.out, 0, 0, 0, 0, 0, 0, 0, 0)
}

// TestInflateRefusesWhatZlibRefuses pins each check compress/zlib makes,
// one crafted stream apiece: the inflater and compress/zlib must both
// refuse it.
func TestInflateRefusesWhatZlibRefuses(t *testing.T) {
	const fixedLitA = 0x30 + 'a' // 8-bit fixed code of literal 'a'
	fixed := func() *streamWriter { return newStream(0x78, 0x01).bits(1, 1).bits(1, 2) }
	repeat := func(w *streamWriter, bit uint64, n int) *streamWriter {
		for i := 0; i < n; i++ {
			w.code(bit, 1)
		}
		return w
	}
	cases := []struct {
		name   string
		stream []byte
	}{
		{"CM not 8", newStream(0x77, 0x09).bytes()},
		{"CINFO above 7", newStream(0x88, 0x1c).bytes()},
		{"FCHECK wrong", newStream(0x78, 0x02).bytes()},
		{"preset dictionary", append(newStream(0x78, 0xbb).bytes()[:2], 0, 0, 0, 2, 3, 0)},
		{"block type 3", newStream(0x78, 0x01).bits(1, 1).bits(3, 2).bytes()},
		{"stored LEN/NLEN mismatch", append(newStream(0x78, 0x01).bits(1, 1).bits(0, 2).bytes()[:3], 1, 0, 0, 0, 'x')},
		{"HLIT above 286", newStream(0x78, 0x01).dynamic(287, 1, 0, 0, 0, 0).bytes()},
		{"HDIST above 30", newStream(0x78, 0x01).dynamic(257, 31, 0, 0, 0, 0).bytes()},
		// 19 one-bit code-length codes.
		{"over-subscribed code-length code", newStream(0x78, 0x01).dynamic(257, 1,
			1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1).bytes()},
		// One two-bit code for symbol 16 and nothing else.
		{"incomplete code-length code", newStream(0x78, 0x01).dynamic(257, 1, 2, 0, 0, 0).bytes()},
		// Symbols 16 and 0 get one-bit codes 1 and 0; the first length is 16.
		{"repeat with no previous length", newStream(0x78, 0x01).dynamic(257, 1, 1, 0, 0, 1).code(1, 1).bytes()},
		// Symbols 0 and 1 (storage slots 4 and 18) get codes 0 and 1: three
		// literal/length codes of one bit.
		{"over-subscribed literal/length code", repeat(repeat(newStream(0x78, 0x01).dynamic(257, 1,
			0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 1, 3), 0, 255).bytes()},
		// Symbols 0 and 2 (storage slots 4 and 16) get codes 0 and 1: one
		// literal/length code of two bits.
		{"incomplete literal/length code", repeat(repeat(newStream(0x78, 0x01).dynamic(257, 1,
			0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 1, 1), 0, 257).bytes()},
		{"literal/length symbol 286", fixed().code(0xc0+6, 8).bytes()},
		{"distance symbol 30", fixed().code(fixedLitA, 8).code(fixedLitA, 8).code(fixedLitA, 8).
			code(1, 7).code(30, 5).bytes()},
		{"distance before the output", fixed().code(fixedLitA, 8).code(1, 7).code(1, 5).bytes()},
	}
	var f inflater
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := f.inflate(make([]byte, 16), tc.stream); err == nil {
				t.Error("inflater accepted the stream")
			}
			zr, err := zlib.NewReader(bytes.NewReader(tc.stream))
			if err == nil {
				_, err = io.ReadAll(zr)
			}
			if err == nil {
				t.Error("compress/zlib accepted the stream: the case does not test a refusal")
			}
		})
	}
}
