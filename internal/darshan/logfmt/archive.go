package logfmt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"iolayers/internal/darshan"
)

// Campaign archives bundle many logs into one stream. Production Darshan
// collections are published exactly this way — the month the paper released
// ships as tarred bundles, not millions of loose files. The format is
// sequential and streaming-friendly:
//
//	magic "DGAR" | version u16 | entries... | terminator
//	entry: length u32 (>0) | one complete log in the DGOL format
//	terminator: length u32 == 0
//
// Appending requires no index and readers can process logs as they arrive.

// ArchiveMagic identifies a campaign archive.
var ArchiveMagic = [4]byte{'D', 'G', 'A', 'R'}

// archiveHeaderSize is the byte length of the archive header (magic +
// version).
const archiveHeaderSize = 6

// ErrNotArchive marks a stream without the archive magic.
var ErrNotArchive = errors.New("logfmt: not a campaign archive")

// maxArchiveEntry bounds one embedded log's size.
const maxArchiveEntry = 1 << 30

// ArchiveWriter appends logs to a campaign archive. Close writes the
// terminator; an unterminated archive reads as truncated.
type ArchiveWriter struct {
	w       *bufio.Writer
	count   int
	written int64
	closed  bool
}

// NewArchiveWriter starts an archive on w.
func NewArchiveWriter(w io.Writer) (*ArchiveWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(ArchiveMagic[:]); err != nil {
		return nil, fmt.Errorf("logfmt: writing archive magic: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, Version); err != nil {
		return nil, fmt.Errorf("logfmt: writing archive version: %w", err)
	}
	return &ArchiveWriter{w: bw, written: archiveHeaderSize}, nil
}

// OpenArchiveAppend reopens an existing unterminated archive at path for
// further appends, truncating it to offset bytes first — the crash-recovery
// path of a checkpointed campaign: the checkpoint records how many archive
// bytes were durable, and everything after (partially written entries, logs
// from jobs the checkpoint does not cover) is discarded before resuming.
// The header is validated; count starts at entries, the caller-recorded
// entry count at that offset. The caller owns closing the returned file
// after Close-ing the writer.
func OpenArchiveAppend(path string, offset int64, entries int) (*ArchiveWriter, *os.File, error) {
	if offset < archiveHeaderSize {
		return nil, nil, fmt.Errorf("logfmt: archive resume offset %d is inside the header", offset)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("logfmt: opening %s for append: %w", path, err)
	}
	var hdr [archiveHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("logfmt: %s: reading archive header: %w", path, err)
	}
	if [4]byte(hdr[:4]) != ArchiveMagic {
		f.Close()
		return nil, nil, fmt.Errorf("%w: %s", ErrNotArchive, path)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != Version {
		f.Close()
		return nil, nil, fmt.Errorf("logfmt: %s: %w", path, versionErr("archive-header", "archive", v))
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("logfmt: truncating %s to %d: %w", path, offset, err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("logfmt: seeking %s: %w", path, err)
	}
	return &ArchiveWriter{w: bufio.NewWriter(f), written: offset, count: entries}, f, nil
}

// Append adds one log to the archive.
func (aw *ArchiveWriter) Append(log *darshan.Log) error {
	if aw.closed {
		return errors.New("logfmt: append to closed archive")
	}
	buf := getBuf()
	defer putBuf(buf)
	if err := Write(buf, log); err != nil {
		return err
	}
	if buf.Len() > maxArchiveEntry {
		return fmt.Errorf("logfmt: log of %d bytes exceeds archive entry limit", buf.Len())
	}
	if err := binary.Write(aw.w, binary.LittleEndian, uint32(buf.Len())); err != nil {
		return fmt.Errorf("logfmt: writing entry length: %w", err)
	}
	if _, err := aw.w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("logfmt: writing entry: %w", err)
	}
	aw.count++
	aw.written += 4 + int64(buf.Len())
	return nil
}

// Count returns the number of logs appended so far.
func (aw *ArchiveWriter) Count() int { return aw.count }

// Offset returns the byte length of the archive body written so far
// (header plus complete entries, no terminator). After Flush (and an fsync
// by the file's owner) it is the durable resume point a checkpoint can
// record: truncating the file to Offset yields a valid unterminated archive
// containing exactly Count entries.
func (aw *ArchiveWriter) Offset() int64 { return aw.written }

// Flush pushes buffered entries to the underlying writer without
// terminating the archive.
func (aw *ArchiveWriter) Flush() error {
	if err := aw.w.Flush(); err != nil {
		return fmt.Errorf("logfmt: flushing archive: %w", err)
	}
	return nil
}

// Close writes the terminator and flushes. The underlying writer is not
// closed (the caller owns it).
func (aw *ArchiveWriter) Close() error {
	if aw.closed {
		return nil
	}
	aw.closed = true
	if err := binary.Write(aw.w, binary.LittleEndian, uint32(0)); err != nil {
		return fmt.Errorf("logfmt: writing archive terminator: %w", err)
	}
	if err := aw.w.Flush(); err != nil {
		return fmt.Errorf("logfmt: flushing archive: %w", err)
	}
	return nil
}

// ArchiveReader iterates the logs of a campaign archive, one at a time and
// with bounded memory: the per-entry scratch buffer is reused across Next
// calls, so iterating a multi-gigabyte archive holds only the largest
// single entry (plus the log currently decoded) in memory.
//
// Entry framing is independent of entry contents, so a corrupt embedded log
// does not end iteration: Next returns the parse error for that entry and
// the reader stays positioned at the following entry.
type ArchiveReader struct {
	r     *bufio.Reader
	lim   DecodeLimits
	done  bool
	off   int64  // stream offset of the next entry frame
	entry []byte // reused raw-entry scratch
	frame [4]byte
	br    bytes.Reader
}

// NewArchiveReader validates the header and prepares iteration under
// DefaultLimits.
func NewArchiveReader(r io.Reader) (*ArchiveReader, error) {
	return NewArchiveReaderWithLimits(r, DefaultLimits())
}

// NewArchiveReaderWithLimits validates the header and prepares iteration.
// lim bounds both the entry frames (MaxArchiveEntry) and, through Next, the
// embedded logs' sections.
func NewArchiveReaderWithLimits(r io.Reader, lim DecodeLimits) (*ArchiveReader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, decodeErrf(KindTruncated, "archive-header", 0, "reading magic: %v", err)
	}
	if magic != ArchiveMagic {
		return nil, fmt.Errorf("%w: got %q", ErrNotArchive, magic[:])
	}
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, decodeErrf(KindTruncated, "archive-header", 0, "reading version: %v", err)
	}
	if version != Version {
		return nil, versionErr("archive-header", "archive", version)
	}
	return &ArchiveReader{r: br, lim: lim.sanitize(), off: archiveHeaderSize}, nil
}

// Damaged reports whether a framing error ended iteration: the stream
// position is lost and nothing after the damage point is reachable. It is
// false for per-entry parse errors, after which the reader remains usable.
func (ar *ArchiveReader) Damaged() bool { return ar.done }

// InputOffset returns the stream offset of the next entry frame.
func (ar *ArchiveReader) InputOffset() int64 { return ar.off }

// Next returns the next log, or io.EOF after the terminator. A parse error
// inside a well-framed entry reports that single bad entry as a
// *DecodeError (classified per the embedded log's damage: a log that ends
// mid-section inside its frame is KindTruncated even though the archive
// framing is intact); the reader remains usable and the next call yields
// the following entry.
// Framing errors (truncation, an impossible entry length) end iteration:
// subsequent calls return io.EOF.
func (ar *ArchiveReader) Next() (*darshan.Log, error) {
	entryStart := ar.off
	raw, err := ar.NextRaw()
	if err != nil {
		return nil, err
	}
	ar.br.Reset(raw)
	log, err := ReadWithLimits(&ar.br, ar.lim)
	if err != nil {
		return nil, asDecodeError(err, "entry", entryStart)
	}
	return log, nil
}

// NextRaw returns the next entry's undecoded bytes, or io.EOF after the
// terminator. The returned slice aliases the reader's scratch and is valid
// only until the following Next/NextRaw call; callers that retain it must
// copy. This is the hand-off point for parallel ingestion: the framing walk
// stays sequential and cheap while the expensive inflate+decode of each
// entry can run elsewhere. Framing failures are *DecodeErrors at the
// entry-frame offset.
func (ar *ArchiveReader) NextRaw() ([]byte, error) {
	if ar.done {
		return nil, io.EOF
	}
	entryStart := ar.off
	if _, err := io.ReadFull(ar.r, ar.frame[:]); err != nil {
		ar.done = true
		return nil, decodeErrf(KindTruncated, "entry-frame", entryStart, "reading entry length: %v", err)
	}
	n := binary.LittleEndian.Uint32(ar.frame[:])
	if n == 0 {
		ar.done = true
		return nil, io.EOF
	}
	if int64(n) > int64(ar.lim.MaxArchiveEntry) {
		ar.done = true // framing lost: the claimed length cannot be trusted
		return nil, decodeErrf(KindLimitExceeded, "entry-frame", entryStart,
			"entry claims %d bytes (limit %d)", n, ar.lim.MaxArchiveEntry)
	}
	ar.entry = grow(ar.entry, int(n))
	if _, err := io.ReadFull(ar.r, ar.entry); err != nil {
		ar.done = true
		return nil, decodeErrf(KindTruncated, "entry-frame", entryStart,
			"reading %d-byte entry: %v", n, err)
	}
	ar.off += 4 + int64(n)
	return ar.entry, nil
}

// WriteArchiveFile writes all logs to a single archive at path.
func WriteArchiveFile(path string, logs []*darshan.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("logfmt: creating %s: %w", path, err)
	}
	aw, err := NewArchiveWriter(f)
	if err != nil {
		f.Close()
		return err
	}
	for _, log := range logs {
		if err := aw.Append(log); err != nil {
			f.Close()
			return err
		}
	}
	if err := aw.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("logfmt: closing %s: %w", path, err)
	}
	return nil
}
