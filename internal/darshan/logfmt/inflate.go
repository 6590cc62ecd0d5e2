package logfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/adler32"
	"math/bits"
)

// A section's payload is one zlib stream: a two-byte header (RFC 1950), raw
// DEFLATE blocks (RFC 1951), and the big-endian adler32 of the inflated
// bytes. The reader inflates it here rather than through compress/zlib.
// Sections are small — a few hundred bytes — and already in memory, so what
// costs is per-stream setup, not bytes: a reader reset, Huffman tables built
// per block, byte-at-a-time refills and a copy out of a 32 KiB history
// window. This inflater works slice to slice instead: it reads the input 64
// bits at a time, the output buffer (sized to the section's declared length)
// is the window, and the fixed-code tables are built once.
//
// It refuses everything compress/zlib refuses, and two things io.ReadFull
// over compress/zlib let through: an adler32 trailer that does not match,
// and a stream that inflates to more or fewer bytes than declared. It also
// refuses every preset-dictionary header, where compress/zlib accepts one
// naming the empty dictionary.

// Root table widths. A code longer than its table's root is decoded bit by
// bit (huffTable.slow); such codes belong to a block's rarest symbols.
const (
	litBits  = 9 // literal/length codes; covers every fixed code
	distBits = 7 // distance codes
	clenBits = 7 // code-length codes, which are at most 7 bits long
)

// A table entry packs everything decoding a symbol needs:
//
//	bits 0-3    code length in bits
//	bits 4-7    extra bits that follow the code (lengths and distances)
//	bits 8-10   kind
//	bits 16-31  value: a literal byte, a code-length symbol, or a length or
//	            distance base
const (
	kindLit  = iota // a literal byte, or a code-length-code symbol
	kindCopy        // a length (literal/length code) or a distance
	kindEnd         // end of block
	kindBad         // a symbol the format forbids, or a bit pattern no code uses
	kindLong        // the prefix of a code longer than the root table
)

func entry(kind, extra, value uint32) uint32 { return value<<16 | kind<<8 | extra<<4 }

func entryKind(e uint32) uint32 { return e >> 8 & 7 }

var (
	errTooLong = errors.New("stream inflates past its declared length")
	// clenOrder is the order code-length code lengths are stored in.
	clenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

	litSyms, distSyms, clenSyms = symbolEntries()
	fixedLit, fixedDist         = fixedTables()
)

// symbolEntries returns the entries of the three alphabets: literal/length
// symbols 0-287 (286 and 287 are forbidden), distance symbols 0-31 (30 and 31
// are forbidden) and code-length symbols 0-18.
func symbolEntries() (lit [288]uint32, dist [32]uint32, clen [19]uint32) {
	for s := 0; s < 256; s++ {
		lit[s] = entry(kindLit, 0, uint32(s))
	}
	lit[256] = entry(kindEnd, 0, 0)
	base := uint32(3)
	for i := uint32(0); i < 28; i++ {
		extra := uint32(0)
		if i >= 8 {
			extra = i/4 - 1
		}
		lit[257+i] = entry(kindCopy, extra, base)
		base += 1 << extra
	}
	lit[285] = entry(kindCopy, 0, 258)
	lit[286], lit[287] = entry(kindBad, 0, 0), entry(kindBad, 0, 0)

	base = 1
	for i := uint32(0); i < 30; i++ {
		extra := uint32(0)
		if i >= 2 {
			extra = i/2 - 1
		}
		dist[i] = entry(kindCopy, extra, base)
		base += 1 << extra
	}
	dist[30], dist[31] = entry(kindBad, 0, 0), entry(kindBad, 0, 0)

	for s := range clen {
		clen[s] = entry(kindLit, 0, uint32(s))
	}
	return lit, dist, clen
}

// fixedTables builds the fixed literal/length and distance codes of RFC 1951
// §3.2.6, once for the process.
func fixedTables() (lit, dist huffTable) {
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	if err := lit.build(lens[:], litSyms[:], litBits); err != nil {
		panic("logfmt: fixed literal code: " + err.Error())
	}
	for s := range 32 {
		lens[s] = 5
	}
	if err := dist.build(lens[:32], distSyms[:], distBits); err != nil {
		panic("logfmt: fixed distance code: " + err.Error())
	}
	return lit, dist
}

// huffTable decodes one canonical Huffman code. root is indexed by the next
// rootBits input bits (first bit lowest); codes longer than that are found
// from count and sorted.
type huffTable struct {
	root   [1 << litBits]uint32
	count  [16]uint16  // codes of each length
	sorted [288]uint16 // symbols in code order: by length, then value
	syms   []uint32    // the alphabet's symbol entries
}

// build makes t decode the code whose lengths are given per symbol (0 =
// unused). Like compress/flate it refuses over-subscribed and incomplete
// codes, except an empty code (an error only once a symbol is decoded from
// it) and a single one-bit code.
func (t *huffTable) build(lengths []uint8, syms []uint32, rootBits uint) error {
	t.syms = syms
	t.count = [16]uint16{}
	maxLen := 0
	for _, l := range lengths {
		t.count[l]++
		maxLen = max(maxLen, int(l))
	}
	t.count[0] = 0
	left := 1 // unused codes of the current length
	for l := 1; l < 16; l++ {
		left = left<<1 - int(t.count[l])
		if left < 0 {
			return errors.New("over-subscribed Huffman code")
		}
	}
	if left > 0 && maxLen > 0 && !(maxLen == 1 && t.count[1] == 1) {
		return errors.New("incomplete Huffman code")
	}

	var next [16]uint16
	for l := 1; l < 15; l++ {
		next[l+1] = next[l] + t.count[l]
	}
	for s, l := range lengths {
		if l != 0 {
			t.sorted[next[l]] = uint16(s)
			next[l]++
		}
	}

	// Fill by doubling: place the codes of each length in a table of that
	// many bits, and double the table before the next length, so that every
	// entry whose low bits are a shorter code already holds it. Entries no
	// code reaches keep the initial marker.
	marker := entry(kindBad, 0, 0)
	if maxLen > int(rootBits) {
		marker = entry(kindLong, 0, 0)
	}
	root := t.root[:1<<rootBits]
	root[0], root[1] = marker, marker
	size, code, i := 2, uint32(0), 0
	for l := uint(1); l <= rootBits; l++ {
		if l > 1 {
			copy(root[size:], root[:size])
			size <<= 1
		}
		for n := t.count[l]; n > 0; n-- {
			root[code] = syms[t.sorted[i]] | uint32(l)
			i++
			code = nextCode(code, l)
		}
	}
	return nil
}

// nextCode returns the canonical code after code, both l bits long and held
// bit-reversed (first bit lowest): adding one to the reversed code clears its
// highest zero bit's higher bits and sets that bit.
func nextCode(code uint32, l uint) uint32 {
	zeros := code ^ (1<<l - 1)
	if zeros == 0 {
		return 0 // the last code of the code space
	}
	bit := uint32(1) << (bits.Len32(zeros) - 1)
	return code&(bit-1) | bit
}

// slow decodes a code longer than the root table from the next bits of b,
// one bit at a time (RFC 1951 §3.2.2).
func (t *huffTable) slow(b uint64) uint32 {
	code, first, index := 0, 0, 0
	for l := 1; l < 16; l++ {
		code |= int(b & 1)
		b >>= 1
		n := int(t.count[l])
		if code < first+n {
			return t.syms[t.sorted[index+code-first]] | uint32(l)
		}
		index += n
		first = (first + n) << 1
		code <<= 1
	}
	return entry(kindBad, 0, 0)
}

// inflater holds the dynamic-code tables one section's stream builds, so
// that inflating the next section reuses them.
type inflater struct {
	src   []byte
	pos   int    // next src byte to load; passes len(src) once refill pads with zeros
	bits  uint64 // loaded bits, next bit lowest
	nbits uint   // how many of bits are loaded
	lit   huffTable
	dist  huffTable
	clen  huffTable
	lens  [286 + 30]uint8
}

// inflate decodes the zlib stream src into all of dst, which is the length
// the section declares.
func (f *inflater) inflate(dst, src []byte) error {
	if len(src) < 2 {
		return errors.New("zlib header: stream ends early")
	}
	cmf, flg := src[0], src[1]
	if cmf&0x0f != 8 || cmf>>4 > 7 || (uint(cmf)<<8|uint(flg))%31 != 0 {
		return fmt.Errorf("invalid zlib header %02x%02x", cmf, flg)
	}
	if flg&0x20 != 0 {
		return errors.New("zlib header asks for a preset dictionary")
	}
	f.src, f.pos, f.bits, f.nbits = src, 2, 0, 0
	out := 0
	for final := false; !final; {
		if f.consumed() > len(src) {
			return errors.New("stream runs past its compressed bytes")
		}
		f.refill()
		final = f.bits&1 != 0
		kind := f.bits >> 1 & 3
		f.consume(3)
		var err error
		switch kind {
		case 0:
			out, err = f.stored(dst, out)
		case 1:
			out, err = f.huffman(dst, out, &fixedLit, &fixedDist)
		case 2:
			if err = f.dynamic(); err == nil {
				out, err = f.huffman(dst, out, &f.lit, &f.dist)
			}
		default:
			err = errors.New("reserved block type 3")
		}
		if err != nil {
			return err
		}
	}
	f.consume(f.nbits & 7)
	p := f.consumed()
	if p+4 > len(src) {
		return errors.New("stream ends before its adler32 trailer")
	}
	if out != len(dst) {
		return fmt.Errorf("stream inflates to %d bytes, %d declared", out, len(dst))
	}
	if got, want := adler32.Checksum(dst), binary.BigEndian.Uint32(src[p:]); got != want {
		return fmt.Errorf("adler32 mismatch (got %08x want %08x)", got, want)
	}
	return nil
}

// consumed returns how many input bytes the bits used so far reach into.
func (f *inflater) consumed() int { return f.pos - int(f.nbits>>3) }

func (f *inflater) consume(n uint) {
	f.bits >>= n
	f.nbits -= n
}

// refill loads input until at least 56 bits are held. Past the end of src it
// loads zeros, which a caller detects through consumed.
func (f *inflater) refill() {
	if f.pos+8 <= len(f.src) {
		// Bits above nbits may be the next bytes' bits, which a later load
		// ORs in again at the same place.
		f.bits |= binary.LittleEndian.Uint64(f.src[f.pos:]) << f.nbits
		f.pos += int(63-f.nbits) >> 3
		f.nbits |= 56
		return
	}
	for f.nbits < 56 {
		if f.pos < len(f.src) {
			f.bits |= uint64(f.src[f.pos]) << f.nbits
		}
		f.pos++
		f.nbits += 8
	}
}

// stored copies a stored block: after the header's byte boundary, LEN and
// its ones' complement NLEN, then LEN raw bytes.
func (f *inflater) stored(dst []byte, out int) (int, error) {
	f.consume(f.nbits & 7)
	p := f.consumed()
	f.pos, f.bits, f.nbits = p, 0, 0
	if p+4 > len(f.src) {
		return out, errors.New("stored block header past the end of the stream")
	}
	n := int(binary.LittleEndian.Uint16(f.src[p:]))
	if nn := binary.LittleEndian.Uint16(f.src[p+2:]); nn != ^uint16(n) {
		return out, fmt.Errorf("stored block LEN %04x does not match NLEN %04x", n, nn)
	}
	p += 4
	if p+n > len(f.src) {
		return out, errors.New("stored block runs past the end of the stream")
	}
	if out+n > len(dst) {
		return out, errTooLong
	}
	copy(dst[out:], f.src[p:p+n])
	f.pos = p + n
	return out + n, nil
}

// dynamic reads a dynamic block's code definitions (RFC 1951 §3.2.7) into
// f.lit and f.dist.
func (f *inflater) dynamic() error {
	f.refill()
	nlit := int(f.bits&31) + 257
	ndist := int(f.bits>>5&31) + 1
	nclen := int(f.bits>>10&15) + 4
	f.consume(14)
	if nlit > 286 || ndist > 30 {
		return fmt.Errorf("block declares %d literal/length and %d distance codes", nlit, ndist)
	}
	var clens [19]uint8
	for _, s := range clenOrder[:nclen] {
		if f.nbits < 3 {
			f.refill()
		}
		clens[s] = uint8(f.bits & 7)
		f.consume(3)
	}
	if err := f.clen.build(clens[:], clenSyms[:], clenBits); err != nil {
		return fmt.Errorf("code-length code: %w", err)
	}
	n := nlit + ndist
	lens := f.lens[:n]
	for i := 0; i < n; {
		if f.nbits < 7+7 {
			f.refill()
		}
		e := f.clen.root[f.bits&(1<<clenBits-1)]
		if entryKind(e) != kindLit {
			return errors.New("bad code-length code")
		}
		f.consume(uint(e & 15))
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		var rep int
		var val uint8
		switch sym {
		case 16:
			if i == 0 {
				return errors.New("repeat code with no previous length")
			}
			rep, val = 3+int(f.bits&3), lens[i-1]
			f.consume(2)
		case 17:
			rep = 3 + int(f.bits&7)
			f.consume(3)
		default:
			rep = 11 + int(f.bits&127)
			f.consume(7)
		}
		if i+rep > n {
			return errors.New("code lengths repeat past the declared count")
		}
		for end := i + rep; i < end; i++ {
			lens[i] = val
		}
	}
	if err := f.lit.build(lens[:nlit], litSyms[:], litBits); err != nil {
		return fmt.Errorf("literal/length code: %w", err)
	}
	if err := f.dist.build(lens[nlit:], distSyms[:], distBits); err != nil {
		return fmt.Errorf("distance code: %w", err)
	}
	return nil
}

// huffman decodes one Huffman-coded block into dst from out on, returning
// the new output length.
func (f *inflater) huffman(dst []byte, out int, lit, dist *huffTable) (int, error) {
	src := f.src
	pos, b, nb := f.pos, f.bits, f.nbits
	for {
		// refill, on locals: a symbol takes at most 15+5 bits and its
		// distance 15+13.
		if nb < 48 {
			if pos+8 <= len(src) {
				b |= binary.LittleEndian.Uint64(src[pos:]) << nb
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				for ; nb < 56; nb += 8 {
					if pos < len(src) {
						b |= uint64(src[pos]) << nb
					}
					pos++
				}
			}
		}
		e := lit.root[b&(1<<litBits-1)]
		if entryKind(e) == kindLong {
			e = lit.slow(b)
		}
		b >>= e & 15
		nb -= uint(e & 15)
		switch entryKind(e) {
		case kindLit:
			if out >= len(dst) {
				return out, errTooLong
			}
			dst[out] = byte(e >> 16)
			out++
			// At least 48-15 bits are left: two more root-table literals
			// need no refill.
			for k := 0; k < 2; k++ {
				e = lit.root[b&(1<<litBits-1)]
				if entryKind(e) != kindLit {
					break
				}
				if out >= len(dst) {
					return out, errTooLong
				}
				b >>= e & 15
				nb -= uint(e & 15)
				dst[out] = byte(e >> 16)
				out++
			}
			continue
		case kindEnd:
			f.pos, f.bits, f.nbits = pos, b, nb
			return out, nil
		case kindBad:
			return out, errors.New("bad literal/length code")
		}
		x := e >> 4 & 15
		length := int(e>>16) + int(b&(1<<x-1))
		b >>= x
		nb -= uint(x)

		d := dist.root[b&(1<<distBits-1)]
		if entryKind(d) == kindLong {
			d = dist.slow(b)
		}
		if entryKind(d) != kindCopy {
			return out, errors.New("bad distance code")
		}
		b >>= d & 15
		nb -= uint(d & 15)
		x = d >> 4 & 15
		distance := int(d>>16) + int(b&(1<<x-1))
		b >>= x
		nb -= uint(x)

		if distance > out {
			return out, fmt.Errorf("distance %d reaches before the %d bytes written", distance, out)
		}
		end := out + length
		if end > len(dst) {
			return out, errTooLong
		}
		from := out - distance
		if distance >= length {
			copy(dst[out:end], dst[from:])
			out = end
			continue
		}
		// An overlapping copy repeats the last distance bytes; each copy
		// doubles what the next one can take.
		for out < end {
			out += copy(dst[out:end], dst[from:out])
		}
	}
}
