package main

import (
	"os"
	"sync"

	"iolayers/internal/darshan"
	"iolayers/internal/darshan/logfmt"
)

// archiveSink streams generated logs into a campaign archive: the one sink
// behind both `iostudy -save` and `iostudy gen -archive`. sync is the
// Flush+fsync point the checkpoint machinery records as the durable resume
// offset. close always writes the terminator, interrupted run or not, so
// the file is a complete archive of the logs appended; a resume truncates
// back to the checkpoint's durable offset before it appends.
type archiveSink struct {
	mu sync.Mutex
	f  *os.File
	aw *logfmt.ArchiveWriter
}

// createArchive starts a new archive at path.
func createArchive(path string) (*archiveSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	aw, err := logfmt.NewArchiveWriter(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &archiveSink{f: f, aw: aw}, nil
}

// appendArchive reopens the archive at path for a resumed campaign,
// truncated to the checkpoint's durable offset and entry count.
func appendArchive(path string, offset int64, entries int) (*archiveSink, error) {
	aw, f, err := logfmt.OpenArchiveAppend(path, offset, entries)
	if err != nil {
		return nil, err
	}
	return &archiveSink{f: f, aw: aw}, nil
}

func (s *archiveSink) sink(jobIdx, logIdx int, log *darshan.Log) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aw.Append(log)
}

func (s *archiveSink) sync() (int64, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.aw.Flush(); err != nil {
		return 0, 0, err
	}
	if err := s.f.Sync(); err != nil {
		return 0, 0, err
	}
	return s.aw.Offset(), s.aw.Count(), nil
}

// close finishes the archive: terminator, flush, fsync, close.
func (s *archiveSink) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.aw.Close()
	if err == nil {
		err = s.f.Sync()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}
