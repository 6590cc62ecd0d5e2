package checkpoint

// The record log — the one durable file format:
//
//	magic(8) | ( u32 payload length | u32 CRC-32 (IEEE) of payload | payload )*
//
// little-endian, payload = one independent gob stream. Every append is
// fsynced before it returns, so a record Append acknowledged survives any
// later crash, and a crash can only ever tear the *last* frame: each
// earlier one was durable before the next began. That is the rule the one
// reader (readLog) applies. A frame whose declared extent reaches or passes
// the end of the file and does not check out is a torn tail — the residue
// of a crash mid-append — and opening the log for writing truncates it
// away: the contents are always the exact prefix of acknowledged appends.
// A frame that ends *before* the end of the file and fails its CRC is
// something no crash can produce; it is damage, reported as a
// *CorruptError, and nothing is truncated or delivered past it.
//
// Records are framed, not streamed through one gob encoder, deliberately:
// a single encoder carries type-definition state across records, so a
// truncated tail would poison decoding of everything after the first torn
// byte on the next open. Independent frames cost a few bytes of repeated
// type definitions per record and buy torn-tail recovery by simple
// truncation.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// magic identifies a record log and versions its envelope.
var magic = [8]byte{'D', 'G', 'J', 'R', 'N', 'L', 0, 1}

// bareGobMagic headed the checkpoint files Save wrote before checkpoints
// became one-record logs: a bare gob stream with no length and no CRC.
// Recognised only to be refused by name.
var bareGobMagic = [8]byte{'D', 'G', 'C', 'K', 'P', 'T', 0, 1}

// ErrNotJournal marks a file without the record-log magic.
var ErrNotJournal = errors.New("checkpoint: not a record log")

// CorruptError reports damage in the middle of a record log: the frame at
// Offset ends before the end of the file, so no crash tore it, yet its
// payload fails the CRC.
type CorruptError struct {
	Path   string
	Offset int64
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint: %s is corrupt: the record at byte %d fails its CRC and is not a torn tail", e.Path, e.Offset)
}

// frameHeader is u32 payload length + u32 CRC-32 (IEEE) of payload.
const frameHeader = 8

// appendFrame gob-encodes v as one record and appends its frame to dst.
func appendFrame(dst []byte, v any) ([]byte, error) {
	start := len(dst)
	buf := bytes.NewBuffer(dst)
	var hdr [frameHeader]byte // filled in once the payload's length is known
	buf.Write(hdr[:])
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return nil, fmt.Errorf("checkpoint: encoding record: %w", err)
	}
	out := buf.Bytes()
	payload := out[start+frameHeader:]
	if len(payload) > math.MaxUint32 {
		return nil, fmt.Errorf("checkpoint: record of %d bytes does not fit a frame", len(payload))
	}
	binary.LittleEndian.PutUint32(out[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[start+4:], crc32.ChecksumIEEE(payload))
	return out, nil
}

// readLog walks the log in f front to back, calling each once per intact
// record with a decode function over that record's payload, and returns the
// offset just past the last intact record and how many there were. A file
// shorter than the magic that is a prefix of it — empty, or a crash tore
// the header write itself — holds no record and returns offset 0. A torn
// tail ends the walk silently; mid-log damage ends it with a
// *CorruptError. A frame is bounded by the bytes the file actually has
// left, so an untrusted length field never sizes an allocation.
func readLog(f *os.File, path string, each func(decode func(v any) error) error) (end int64, records int, err error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("checkpoint: stat %s: %w", path, err)
	}
	size := fi.Size()
	var head [len(magic)]byte
	n, err := f.ReadAt(head[:], 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return 0, 0, fmt.Errorf("checkpoint: reading %s: %w", path, err)
	}
	switch {
	case head == bareGobMagic:
		return 0, 0, fmt.Errorf("%w: %s is a bare-gob DGCKPT checkpoint from before checkpoints were framed and checksummed; this version does not read it — restart the pass that wrote it",
			ErrNotJournal, path)
	case n < len(magic) && bytes.HasPrefix(magic[:], head[:n]):
		return 0, 0, nil
	case head != magic:
		return 0, 0, fmt.Errorf("%w: %s", ErrNotJournal, path)
	}
	end = int64(len(magic))
	var hdr [frameHeader]byte
	var payload []byte
	for size-end >= frameHeader {
		if _, err := f.ReadAt(hdr[:], end); err != nil {
			return end, records, fmt.Errorf("checkpoint: reading %s: %w", path, err)
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		next := end + frameHeader + length
		if next > size {
			break // declared extent passes EOF: torn tail
		}
		if int64(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := f.ReadAt(payload, end+frameHeader); err != nil {
			return end, records, fmt.Errorf("checkpoint: reading %s: %w", path, err)
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
			if next == size {
				break // the last frame: torn tail
			}
			return end, records, &CorruptError{Path: path, Offset: end}
		}
		if each != nil {
			decode := func(v any) error { return gob.NewDecoder(bytes.NewReader(payload)).Decode(v) }
			if err := each(decode); err != nil {
				return end, records, fmt.Errorf("checkpoint: %s record %d: %w", path, records, err)
			}
		}
		records++
		end = next
	}
	return end, records, nil
}

// Journal is a record log open for appending. Append is not goroutine-safe;
// callers serialize (the serve lake appends to a dataset's log under that
// dataset's ingest lock).
type Journal struct {
	f       *os.File
	off     int64 // offset after the last durable record
	records int
}

// OpenJournal opens the log at path for appending, creating it if absent,
// without looking inside the records it already holds.
func OpenJournal(path string) (*Journal, error) { return RecoverJournal(path, nil) }

// RecoverJournal opens the log at path for appending, creating it if
// absent, and on the way — the file is read once — hands every record
// already durable in it to each, in order. A torn tail is truncated away so
// the file ends on a record boundary; on any error, mid-log damage
// included, the file is left byte-for-byte as it was found.
func RecoverJournal(path string, each func(decode func(v any) error) error) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: opening %s: %w", path, err)
	}
	end, records, err := readLog(f, path, each)
	switch {
	case err != nil:
	case end == 0:
		end, err = int64(len(magic)), startLog(f, path)
	default:
		err = f.Truncate(end)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f, off: end, records: records}, nil
}

// startLog writes the header of a log that has none yet and makes the
// file's own directory entry durable: the first record appended is no more
// durable than the name it is filed under.
func startLog(f *os.File, path string) error {
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("checkpoint: resetting %s: %w", path, err)
	}
	if _, err := f.WriteAt(magic[:], 0); err != nil {
		return fmt.Errorf("checkpoint: writing %s header: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing %s header: %w", path, err)
	}
	SyncDir(filepath.Dir(path))
	return nil
}

// Append writes v as one record and fsyncs before returning: once Append
// returns nil the record is durable. On a write error the file is rolled
// back to the last durable boundary so a failed append never leaves a torn
// middle.
func (j *Journal) Append(v any) error {
	frame, err := appendFrame(nil, v)
	if err != nil {
		return err
	}
	if _, err := j.f.WriteAt(frame, j.off); err != nil {
		j.f.Truncate(j.off) // best effort: restore the record boundary
		return fmt.Errorf("checkpoint: appending record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.f.Truncate(j.off)
		return fmt.Errorf("checkpoint: syncing record: %w", err)
	}
	j.off += int64(len(frame))
	j.records++
	return nil
}

// Records returns how many durable records the log holds.
func (j *Journal) Records() int { return j.records }

// Close releases the log's file handle. Appends after Close fail.
func (j *Journal) Close() error { return j.f.Close() }

// ReplayJournal reads the log at path front to back without modifying it,
// calling each once per intact record. A missing file is an empty log (nil
// error); a torn tail ends the replay silently — exactly the records whose
// Append was acknowledged are delivered. Errors returned by each abort the
// replay.
func ReplayJournal(path string, each func(decode func(v any) error) error) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("checkpoint: opening %s: %w", path, err)
	}
	defer f.Close()
	_, _, err = readLog(f, path, each)
	return err
}

// RewriteJournal atomically replaces the log at path with one holding
// exactly records — a compaction, or a checkpoint Save — and returns it
// open for appending after them. A crash at any instant leaves either the
// old file or the complete new one; on error the old file is untouched. A
// Journal already open on path keeps naming the replaced file: close it
// once RewriteJournal has returned the new one.
func RewriteJournal(path string, records ...any) (*Journal, error) {
	a, err := CreateAtomic(path)
	if err != nil {
		return nil, err
	}
	defer a.Abort()
	log := append([]byte(nil), magic[:]...)
	for _, v := range records {
		if log, err = appendFrame(log, v); err != nil {
			return nil, err
		}
	}
	if _, err := a.Write(log); err != nil {
		return nil, fmt.Errorf("checkpoint: writing %s: %w", a.Name(), err)
	}
	if err := a.replace(); err != nil {
		return nil, err
	}
	return &Journal{f: a.File, off: int64(len(log)), records: len(records)}, nil
}
