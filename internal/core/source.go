// Ingest sources. A source is one campaign input walked in a fixed order:
// a frozen, sorted list of .darshan paths (a directory, or a single log as
// a one-element list), the entries of a .dgar archive, or the segments of
// a .dgc columnar campaign. Open is the only place a path's kind is
// decided; everything downstream — the ingest driver, Convert — sees
// items and never asks what file they came from.
package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"iolayers/internal/darshan/colfmt"
	"iolayers/internal/darshan/logfmt"
)

// source hands the ingest driver its items in input order. The order is
// part of the determinism contract: item k of a batch goes to worker
// k mod workers, and a checkpoint's EntriesDone counts a prefix of it.
type source interface {
	// mode is the IngestCheckpoint.Mode string of passes over this source.
	mode() string
	// listing is the input list a checkpoint must carry to find its place
	// again; nil for the stream kinds, whose order is the file's own.
	listing() []string
	// resume positions the source just past ck's completed prefix, so the
	// next item is number ck.EntriesDone.
	resume(ck *IngestCheckpoint) error
	// remaining is how many items are left, or -1 while only reaching the
	// end of the stream will tell.
	remaining() int
	// next returns the next item, ok=false at end of input, or a non-nil
	// error on stream-level damage (nothing beyond it is reachable). The
	// item's raw bytes are the reader's scratch, good until the next call.
	next() (item ingestItem, ok bool, err error)
	close()
}

// Open decides what the campaign input at path is and returns the source
// that walks it. A directory — whatever its name — is its *.darshan logs
// in sorted order. Anything else is judged by its first four bytes, never
// by its file name: a single log (logfmt.Magic), a campaign archive
// (logfmt.ArchiveMagic) or a columnar campaign (colfmt.Magic); a file that
// starts with none of them is rejected as bad-magic, naming what was found.
func Open(path string, lim logfmt.DecodeLimits) (source, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if fi.IsDir() {
		paths, err := filepath.Glob(filepath.Join(path, "*.darshan"))
		if err != nil {
			return nil, fmt.Errorf("core: listing %s: %w", path, err)
		}
		sort.Strings(paths) // Glob sorts, but the determinism contract should not rest on that
		return &pathSource{paths: paths}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: opening %s: %w", path, err)
	}
	var magic [4]byte
	n, _ := io.ReadFull(f, magic[:]) // a short file leaves zero bytes, which no magic has
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("core: %s: %w", path, err)
	}
	var src *frameSource
	switch {
	case magic == logfmt.Magic:
		f.Close() // the worker that decodes the log opens it itself
		return &pathSource{paths: []string{path}}, nil
	case magic == logfmt.ArchiveMagic:
		var ar *logfmt.ArchiveReader
		if ar, err = logfmt.NewArchiveReaderWithLimits(f, lim); err == nil {
			src = &frameSource{kind: "archive", in: path + " entry ", nextRaw: ar.NextRaw}
		}
	case string(magic[:]) == colfmt.Magic:
		var cr *colfmt.Reader
		if cr, err = colfmt.NewReaderWithLimits(f, lim); err == nil {
			src = &frameSource{kind: "columnar", in: path + " segment ", columnar: true, nextRaw: cr.NextRaw}
		}
	default:
		err = &logfmt.DecodeError{Kind: logfmt.KindBadMagic, Section: "header", Detail: fmt.Sprintf(
			"starts with %q: not a .darshan log (%q), a .dgar archive (%q) or a .dgc columnar campaign (%q)",
			magic[:n], logfmt.Magic[:], logfmt.ArchiveMagic[:], colfmt.Magic)}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("core: %s: %w", path, err)
	}
	src.f = f
	return src, nil
}

// pathSource walks a frozen list of log files; each worker opens and
// decodes the paths it is dealt.
type pathSource struct {
	paths []string
	pos   int
}

func (s *pathSource) mode() string      { return "dir" }
func (s *pathSource) listing() []string { return s.paths }
func (s *pathSource) remaining() int    { return len(s.paths) - s.pos }
func (s *pathSource) close()            {}

// resume adopts the checkpoint's listing rather than the fresh one:
// quarantined files have left the directory, so a re-glob would shift
// every index behind them.
func (s *pathSource) resume(ck *IngestCheckpoint) error {
	if ck.EntriesDone > len(ck.Paths) {
		return fmt.Errorf("core: checkpoint claims %d of %d logs done", ck.EntriesDone, len(ck.Paths))
	}
	s.paths, s.pos = ck.Paths, ck.EntriesDone
	return nil
}

func (s *pathSource) next() (ingestItem, bool, error) {
	if s.pos >= len(s.paths) {
		return ingestItem{}, false, nil
	}
	item := ingestItem{index: s.pos, path: s.paths[s.pos]}
	s.pos++
	return item, true, nil
}

// frameSource walks the length-prefixed frames of a campaign file — the
// entries of a .dgar or the segments of a .dgc — handing out each frame
// raw. Walking the framing is sequential and cheap; the workers pay the
// expensive inflate+decode (or segment decode) in parallel.
type frameSource struct {
	kind     string // checkpoint mode
	in       string // "<path> entry " or "<path> segment ", for messages
	columnar bool
	f        *os.File
	nextRaw  func() ([]byte, error)
	idx      int
	eof      bool
}

func (s *frameSource) mode() string      { return s.kind }
func (s *frameSource) listing() []string { return nil }
func (s *frameSource) close()            { s.f.Close() }

func (s *frameSource) remaining() int {
	if s.eof {
		return 0
	}
	return -1
}

// resume skips the completed prefix with the framing walk alone: no entry
// is inflated, no column decoded.
func (s *frameSource) resume(ck *IngestCheckpoint) error {
	for s.idx < ck.EntriesDone {
		if _, err := s.nextRaw(); err != nil {
			return fmt.Errorf("core: skipping to %s%d: %w", s.in, ck.EntriesDone, err)
		}
		s.idx++
	}
	return nil
}

func (s *frameSource) next() (ingestItem, bool, error) {
	raw, err := s.nextRaw()
	if errors.Is(err, io.EOF) {
		s.eof = true
		return ingestItem{}, false, nil
	}
	if err != nil {
		return ingestItem{}, false, fmt.Errorf("core: %s%d: %w", s.in, s.idx, err)
	}
	item := ingestItem{index: s.idx, raw: raw, in: s.in, columnar: s.columnar}
	s.idx++
	return item, true, nil
}
