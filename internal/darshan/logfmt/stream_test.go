package logfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"iolayers/internal/darshan"
)

// writeSampleArchive writes n copies of sampleLog (with distinct job ids)
// and returns the archive path.
func writeSampleArchive(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.dgar")
	logs := make([]*darshan.Log, n)
	for i := range logs {
		log := sampleLog()
		log.Job.JobID = uint64(1000 + i)
		logs[i] = log
	}
	if err := WriteArchiveFile(path, logs); err != nil {
		t.Fatal(err)
	}
	return path
}

// corruptEntry flips one byte in the middle of entry k's embedded log,
// leaving the archive framing intact.
func corruptEntry(t *testing.T, path string, k int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 6 // magic + version
	for i := 0; i < k; i++ {
		off += 4 + int(binary.LittleEndian.Uint32(raw[off:]))
	}
	n := int(binary.LittleEndian.Uint32(raw[off:]))
	raw[off+4+n/2] ^= 0x5A
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A corrupt entry does not end iteration — the framing is independent of
// entry contents: Next returns the per-entry error, then keeps yielding the
// entries after it.
func TestArchiveReaderNextRecoversFromCorruptEntry(t *testing.T) {
	path := writeSampleArchive(t, 3)
	corruptEntry(t, path, 0)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ar, err := NewArchiveReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ar.Next(); err == nil {
		t.Fatal("corrupt first entry should error")
	}
	for want := uint64(1001); want <= 1002; want++ {
		log, err := ar.Next()
		if err != nil {
			t.Fatalf("entry after corruption: %v", err)
		}
		if log.Job.JobID != want {
			t.Errorf("job id = %d, want %d", log.Job.JobID, want)
		}
	}
}

// The bounded-memory contract: the raw-entry scratch is reused across
// NextRaw calls instead of reallocated, so iterating an archive holds one
// entry at a time.
func TestArchiveReaderReusesEntryScratch(t *testing.T) {
	path := writeSampleArchive(t, 3)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ar, err := NewArchiveReader(f)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ar.NextRaw()
	if err != nil {
		t.Fatal(err)
	}
	p0 := &first[0]
	second, err := ar.NextRaw()
	if err != nil {
		t.Fatal(err)
	}
	// Entries are the same size here, so reuse means the same backing array.
	if &second[0] != p0 {
		t.Error("NextRaw reallocated its scratch for a same-sized entry")
	}
}

// Pooled codec state is shared across goroutines; hammer round trips in
// parallel so `go test -race` guards the pools.
func TestParallelRoundTripsShareCodecPools(t *testing.T) {
	base := sampleLog()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := Write(&buf, base); err != nil {
					errs <- err
					return
				}
				got, err := Read(&buf)
				if err != nil {
					errs <- err
					return
				}
				if got.Job.JobID != base.Job.JobID || len(got.Records) != len(base.Records) {
					errs <- errors.New("parallel round trip corrupted a log")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// A log that grows a Decoder's storage past what the pools keep leaves the
// Decoder holding none of it, while the log itself stays intact.
func TestDecoderDropsOutgrownStorage(t *testing.T) {
	n := maxPooledBuf/(8*(darshan.NumPosixCounters+darshan.NumPosixFCounters)) + 1
	rt := darshan.NewRuntime(darshan.JobHeader{JobID: 1, NProcs: 1})
	for i := 0; i < n; i++ {
		rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: fmt.Sprintf("/gpfs/f%d", i),
			Kind: darshan.OpWrite, Size: 1, Start: 1, End: 2})
	}
	var big bytes.Buffer
	if err := Write(&big, rt.Finalize()); err != nil {
		t.Fatal(err)
	}
	var d Decoder
	log, err := d.Decode(bytes.NewReader(big.Bytes()), DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if d.st != nil {
		t.Fatalf("decoder kept %d records' storage", cap(d.st.recs))
	}
	if len(log.Records) != n || len(log.Names) != n {
		t.Fatalf("outsized log decoded to %d records and %d names, want %d", len(log.Records), len(log.Names), n)
	}
	if _, err := d.Decode(bytes.NewReader(encodeSample(t)), DefaultLimits()); err != nil {
		t.Fatal(err)
	}
	if d.st == nil || cap(d.st.recs) >= n {
		t.Fatal("the next log did not start a fresh store")
	}
}
