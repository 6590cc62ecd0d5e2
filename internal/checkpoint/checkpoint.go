// Package checkpoint owns the repository's one durable file format — the
// CRC-framed record log of journal.go — and the one way a file is replaced
// on disk. Everything that must survive a crash goes through it: a
// checkpoint is a log of exactly one record (Save/Load), a serve-lake
// dataset is a log that grows by one record per ingest (Journal), and the
// columnar writers borrow the atomic replace (AtomicFile) for formats of
// their own. Record payloads are gob, chosen over JSON deliberately: it
// round-trips float64 bit-exactly, which the resume-byte-identity guarantee
// depends on. A value with a binary layout of its own (the aggregator
// state, a lake record) travels through gob as its bytes: gob would
// describe a BinaryMarshaler's exported field types once per record, so
// the lake hands Append a byte slice type and a checkpoint holds the
// state's bytes in a []byte field. No other package encodes gob or renames
// a temp file into place (the `durablelint` and `durablelint/rename` rows
// of lint_test.go).
package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// staleTempAge is how old an abandoned temp file must be before Save
// sweeps it. A crash between CreateAtomic and the rename orphans the temp;
// age-gating the sweep keeps Save from deleting a temp another in-flight
// writer of the same path created moments ago.
const staleTempAge = time.Hour

// SweepTemps removes abandoned temp files — the `<base>.tmp<random>`
// residue of a crash between CreateAtomic and the rename — from dir,
// keeping only those younger than olderThan. An empty base sweeps temps of
// every base name in dir (recovery-time cleanup); olderThan 0 sweeps
// regardless of age. Returns how many were removed.
func SweepTemps(dir, base string, olderThan time.Duration) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	cutoff := time.Now().Add(-olderThan)
	removed := 0
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if base != "" {
			if !strings.HasPrefix(name, base+".tmp") {
				continue
			}
		} else if !strings.Contains(name, ".tmp") {
			continue
		}
		if olderThan > 0 {
			fi, err := de.Info()
			if err != nil || fi.ModTime().After(cutoff) {
				continue
			}
		}
		if os.Remove(filepath.Join(dir, name)) == nil {
			removed++
		}
	}
	return removed
}

// AtomicFile is a file under construction beside the path it will replace.
// Write through the embedded handle, then Commit; a crash at any instant
// leaves either the previous complete file at the path or the new complete
// one, never a torn mix. Abort — safe to defer, a no-op once the rename
// has happened — discards the temp instead.
type AtomicFile struct {
	*os.File
	path    string
	renamed bool
}

// CreateAtomic starts an atomic replacement of path. The temp file is
// `<base>.tmp<random>` in path's own directory, so the rename cannot cross
// filesystems and SweepTemps can find what a crash leaves behind.
func CreateAtomic(path string) (*AtomicFile, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: creating temp file: %w", err)
	}
	return &AtomicFile{File: f, path: path}, nil
}

// replace is the one temp → fsync → chmod 0644 (CreateTemp opens 0600) →
// rename → directory fsync sequence. The handle stays open and now names
// the file at path.
func (a *AtomicFile) replace() error {
	if err := a.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing %s: %w", a.Name(), err)
	}
	if err := a.Chmod(0o644); err != nil {
		return fmt.Errorf("checkpoint: chmod %s: %w", a.Name(), err)
	}
	if err := os.Rename(a.Name(), a.path); err != nil {
		return fmt.Errorf("checkpoint: renaming into place: %w", err)
	}
	a.renamed = true
	SyncDir(filepath.Dir(a.path))
	return nil
}

// Commit makes what was written durable at the destination path and
// closes the handle. On error before the rename the destination is
// untouched (and a deferred Abort removes the temp).
func (a *AtomicFile) Commit() error {
	if err := a.replace(); err != nil {
		return err
	}
	return a.Close()
}

// Abort closes and removes the temp file of a replacement that will not
// be committed. After the rename it does nothing.
func (a *AtomicFile) Abort() {
	if a.renamed {
		return
	}
	a.Close()
	os.Remove(a.Name())
}

// SyncDir makes a rename, file creation or mkdir in dir itself durable.
// Some filesystems don't support fsync on directories; failure to sync is
// not failure to save.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Save atomically replaces path with a log whose one record is v. Stale
// temps a crashed predecessor left behind for the same path are swept
// first, so orphaned `<base>.tmp*` files cannot accumulate forever.
func Save(path string, v any) error {
	SweepTemps(filepath.Dir(path), filepath.Base(path), staleTempAge)
	j, err := RewriteJournal(path, v)
	if err != nil {
		return err
	}
	return j.Close()
}

// Load reads the one record of the checkpoint at path into v (a pointer to
// the same type Save was given). Anything but exactly one intact record —
// a missing or torn file, a failed CRC, a foreign header — is an error.
func Load(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("checkpoint: opening %s: %w", path, err)
	}
	defer f.Close()
	_, records, err := readLog(f, path, func(decode func(any) error) error { return decode(v) })
	if err == nil && records != 1 {
		err = fmt.Errorf("checkpoint: %s holds %d complete records, want the 1 a checkpoint is", path, records)
	}
	return err
}
