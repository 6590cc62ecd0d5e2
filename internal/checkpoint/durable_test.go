package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// logBytes returns the raw bytes of a log holding sampleState(0..n).
func logBytes(t testing.TB, n int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "built.log")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < n; i++ {
		if err := j.Append(sampleState(i)); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestJournalMidLogFlipIsCorruption: a crash can only tear the last frame,
// so a CRC failure in a frame that ends before EOF is damage. It used to be
// taken for a torn tail: OpenJournal returned nil and cut the file — every
// later, intact, acknowledged record included — down to its header.
func TestJournalMidLogFlipIsCorruption(t *testing.T) {
	raw := logBytes(t, 3)
	mut := append([]byte(nil), raw...)
	at := len(magic) + frameHeader + 5 // inside record 0's payload
	mut[at] ^= 0x10
	path := filepath.Join(t.TempDir(), "flipped.log")
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}

	delivered := 0
	j, err := RecoverJournal(path, func(func(any) error) error { delivered++; return nil })
	var corrupt *CorruptError
	if !errors.As(err, &corrupt) {
		if j != nil {
			j.Close()
		}
		t.Fatalf("open of a log with a flipped bit in record 0: err = %v, want a *CorruptError", err)
	}
	if corrupt.Path != path || corrupt.Offset != int64(len(magic)) {
		t.Errorf("corruption reported at %s:%d, want %s:%d", corrupt.Path, corrupt.Offset, path, len(magic))
	}
	if delivered != 0 {
		t.Errorf("%d records delivered from behind the damage", delivered)
	}
	if err := ReplayJournal(path, nil); !errors.As(err, &corrupt) {
		t.Errorf("read-only replay: err = %v, want a *CorruptError", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, mut) {
		t.Errorf("the damaged file was modified: %d bytes, was %d", len(after), len(mut))
	}
}

// TestJournalOversizeLengthAllocatesNothing: the length field of a torn
// tail is untrusted bytes. It used to size a make() before anything was
// read; a frame is now bounded by what the file has left.
func TestJournalOversizeLengthAllocatesNothing(t *testing.T) {
	raw := logBytes(t, 1)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 60<<20)
	raw = append(append(raw, hdr[:]...), "torn"...)
	path := filepath.Join(t.TempDir(), "oversize.log")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j, err := OpenJournal(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("a tail claiming a 60 MiB frame must open as a torn tail: %v", err)
	}
	defer j.Close()
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("opening a %d-byte file allocated %d bytes", len(raw), grew)
	}
	if j.Records() != 1 {
		t.Errorf("log holds %d records after the torn tail was cut, want 1", j.Records())
	}
	if got := replayAll(t, path); len(got) != 1 || !reflect.DeepEqual(got[0], sampleState(0)) {
		t.Errorf("replay after truncation: %+v", got)
	}
}

// TestLoadDetectsEveryBitFlip: a checkpoint used to be a bare gob stream
// with no checksum, and two thirds of all single-bit flips loaded without
// error as a different value — silently breaking byte-identical resume.
func TestLoadDetectsEveryBitFlip(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ckpt")
	if err := Save(full, sampleState(9)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	flipped := filepath.Join(dir, "flipped.ckpt")
	silent := 0
	for at := 0; at < len(raw); at++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), raw...)
			mut[at] ^= 1 << bit
			if err := os.WriteFile(flipped, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			var got testState
			if err := Load(flipped, &got); err == nil {
				silent++
				t.Errorf("bit %d of byte %d flipped: loaded without error as %+v", bit, at, got)
			}
		}
	}
	if silent > 0 {
		t.Errorf("%d of %d single-bit flips loaded silently", silent, 8*len(raw))
	}
}

// TestLoadRefusesBareGobCheckpoint: the old envelope is named, not parsed.
func TestLoadRefusesBareGobCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.ckpt")
	old := append(append([]byte(nil), bareGobMagic[:]...), "any gob stream"...)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	var got testState
	err := Load(path, &got)
	if !errors.Is(err, ErrNotJournal) || !strings.Contains(err.Error(), "DGCKPT") || !strings.Contains(err.Error(), "restart the pass") {
		t.Errorf("Load of a DGCKPT file: %v, want a refusal naming the old format and the way out", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, old) {
		t.Error("the old-format file was modified")
	}
}

// TestAtomicWritersEndWorldReadable: CreateTemp opens 0600, and a log
// created 0644 used to turn 0600 at its first rewrite. Every atomic writer
// ends 0644 and leaves no temp behind, committed or aborted.
func TestAtomicWritersEndWorldReadable(t *testing.T) {
	dir := t.TempDir()
	saved, rewritten, plain := filepath.Join(dir, "saved"), filepath.Join(dir, "rewritten"), filepath.Join(dir, "plain")
	if err := Save(saved, sampleState(1)); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, rewritten, 0, 2)
	j, err := RewriteJournal(rewritten, sampleState(7))
	if err != nil {
		t.Fatal(err)
	}
	// The handle RewriteJournal hands back appends to the new file.
	if err := j.Append(sampleState(8)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if got := replayAll(t, rewritten); len(got) != 2 || !reflect.DeepEqual(got[1], sampleState(8)) {
		t.Errorf("append through the rewrite's handle: replayed %+v", got)
	}
	a, err := CreateAtomic(plain)
	if err != nil {
		t.Fatal(err)
	}
	a.Write([]byte("payload"))
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	a.Abort() // after Commit: must not remove anything
	aborted, err := CreateAtomic(filepath.Join(dir, "aborted"))
	if err != nil {
		t.Fatal(err)
	}
	aborted.Write([]byte("never"))
	aborted.Abort()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != 0o644 {
			t.Errorf("%s ends mode %v, want 0644", e.Name(), fi.Mode().Perm())
		}
	}
	if want := []string{"plain", "rewritten", "saved"}; !reflect.DeepEqual(names, want) {
		t.Errorf("directory holds %v, want %v", names, want)
	}
}

// refWalk is the fuzz target's reference reader: how many intact records
// front a log's bytes, and whether the walk ends in mid-log damage (a
// CRC-failing frame that stops short of the end) rather than a torn tail.
func refWalk(data []byte) (records int, corrupt, foreign bool) {
	if len(data) < len(magic) {
		return 0, false, !bytes.HasPrefix(magic[:], data)
	}
	if !bytes.Equal(data[:len(magic)], magic[:]) {
		return 0, false, true
	}
	rest := data[len(magic):]
	for len(rest) >= frameHeader {
		length := int(binary.LittleEndian.Uint32(rest[0:4]))
		if length > len(rest)-frameHeader {
			break
		}
		payload := rest[frameHeader : frameHeader+length]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			return records, frameHeader+length < len(rest), false
		}
		records++
		rest = rest[frameHeader+length:]
	}
	return records, false, false
}

// FuzzRecordLog covers every durable user at once — checkpoints, lake
// logs, the bench's probe journal — because they share the one reader:
// opening arbitrary bytes never panics, delivers exactly the intact prefix
// the reference walk finds, refuses mid-log damage without touching the
// file, is idempotent (a second open of what the first left behind delivers
// the same records), and leaves a log an Append extends by exactly one.
func FuzzRecordLog(f *testing.F) {
	valid := logBytes(f, 3)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:5])                         // torn magic
	f.Add(valid[:len(magic)+3])              // torn frame header
	f.Add(valid[:len(magic)+frameHeader+10]) // torn payload
	f.Add(valid[:len(valid)-1])              // torn last byte
	flip := append([]byte(nil), valid...)
	flip[len(magic)+frameHeader+5] ^= 0x10 // mid-log damage
	f.Add(flip)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 60<<20) // oversize length
	f.Add(append(append([]byte(nil), valid...), hdr[:]...))
	f.Add(append(append([]byte(nil), bareGobMagic[:]...), valid[len(magic):]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		wantRecords, wantCorrupt, wantForeign := refWalk(data)
		count := func(n *int) func(func(any) error) error {
			return func(func(any) error) error { *n++; return nil }
		}

		first := 0
		j, err := RecoverJournal(path, count(&first))
		if wantCorrupt || wantForeign {
			var corrupt *CorruptError
			if wantCorrupt != errors.As(err, &corrupt) || wantForeign != errors.Is(err, ErrNotJournal) {
				t.Fatalf("open: err = %v, want corrupt=%v foreign=%v", err, wantCorrupt, wantForeign)
			}
			if wantCorrupt && first != wantRecords {
				t.Fatalf("%d records delivered before the damage, want %d", first, wantRecords)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatal("a refused file was modified")
			}
			return
		}
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if first != wantRecords || j.Records() != wantRecords {
			t.Fatalf("delivered %d records (Records() = %d), want the %d-record intact prefix", first, j.Records(), wantRecords)
		}
		j.Close()

		second := 0
		j, err = RecoverJournal(path, count(&second))
		if err != nil || second != first {
			t.Fatalf("second open delivered %d records (err %v), first delivered %d", second, err, first)
		}
		if err := j.Append(sampleState(77)); err != nil {
			t.Fatal(err)
		}
		j.Close()

		third := 0
		var last testState
		err = ReplayJournal(path, func(decode func(v any) error) error {
			if third++; third == first+1 {
				return decode(&last)
			}
			return nil
		})
		if err != nil || third != first+1 || !reflect.DeepEqual(&last, sampleState(77)) {
			t.Fatalf("after an append: %d records (err %v), last %+v; want %d ending in the appended one", third, err, last, first+1)
		}
	})
}
