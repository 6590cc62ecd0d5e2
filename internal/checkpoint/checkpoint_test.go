package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

type testState struct {
	Name  string
	Count int64
	Vals  map[string]float64
}

func sampleState(i int) *testState {
	return &testState{
		Name:  "dataset",
		Count: int64(i),
		Vals:  map[string]float64{"pi": 3.14159, "logs": float64(i * 7)},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	want := sampleState(3)
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	var got testState
	if err := Load(path, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
}

// TestLoadTruncatedAtEveryByte cuts a saved checkpoint at every possible
// length: Load must return an error — never a panic, never a silently
// wrong value — at each of them.
func TestLoadTruncatedAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ckpt")
	if err := Save(full, sampleState(9)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.ckpt")
	for n := 0; n < len(raw); n++ {
		if err := os.WriteFile(cut, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		var got testState
		if err := Load(cut, &got); err == nil {
			t.Fatalf("truncation at byte %d of %d loaded without error", n, len(raw))
		}
	}
}

// TestSaveSweepsStaleTemps is the regression test for orphaned
// `<base>.tmp*` files: a crash between CreateTemp and rename used to leave
// them in the directory forever. Save must sweep aged orphans of its own
// base name — and must leave fresh temps and unrelated files alone.
func TestSaveSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	old := time.Now().Add(-2 * time.Hour)

	stale := filepath.Join(dir, "state.ckpt.tmp123456")
	fresh := filepath.Join(dir, "state.ckpt.tmp654321")
	other := filepath.Join(dir, "other.ckpt.tmp111111")
	for _, p := range []string{stale, fresh, other} {
		if err := os.WriteFile(p, []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{stale, other} {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}

	if err := Save(path, sampleState(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale temp survived Save: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp was swept: %v", err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Errorf("another base's temp was swept by a scoped Save: %v", err)
	}

	// Recovery-time sweep: base "" and age 0 clears every temp.
	if n := SweepTemps(dir, "", 0); n != 2 {
		t.Errorf("unscoped sweep removed %d temps, want 2", n)
	}
	var got testState
	if err := Load(path, &got); err != nil {
		t.Errorf("checkpoint damaged by sweeping: %v", err)
	}
}

func appendRecords(t *testing.T, path string, from, to int) {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := from; i < to; i++ {
		if err := j.Append(sampleState(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func replayAll(t *testing.T, path string) []*testState {
	t.Helper()
	var got []*testState
	err := ReplayJournal(path, func(decode func(v any) error) error {
		var st testState
		if err := decode(&st); err != nil {
			return err
		}
		got = append(got, &st)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commits.journal")
	appendRecords(t, path, 0, 4)
	// Reopen and extend: the journal is append-only across opens.
	appendRecords(t, path, 4, 6)
	got := replayAll(t, path)
	if len(got) != 6 {
		t.Fatalf("replayed %d records, want 6", len(got))
	}
	for i, st := range got {
		if !reflect.DeepEqual(st, sampleState(i)) {
			t.Errorf("record %d = %+v, want %+v", i, st, sampleState(i))
		}
	}
}

// TestJournalTruncatedAtEveryByte is the crash-window sweep: the journal
// cut at every possible byte must replay to some exact prefix of the
// appended records (a torn tail is silently discarded, an intact record is
// never lost or altered), and OpenJournal on the cut file must truncate to
// that same prefix and accept further appends.
func TestJournalTruncatedAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.journal")
	const records = 5
	appendRecords(t, full, 0, records)

	// Record boundaries: replay offsets after each append.
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := map[int]int{} // byte length -> records fully contained
	probe := filepath.Join(dir, "probe.journal")
	for n := 0; n <= len(raw); n++ {
		if err := os.WriteFile(probe, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, probe)
		for i, st := range got {
			if !reflect.DeepEqual(st, sampleState(i)) {
				t.Fatalf("cut at %d: record %d = %+v, want %+v", n, i, st, sampleState(i))
			}
		}
		boundaries[n] = len(got)
		if n > 0 && boundaries[n] < boundaries[n-1] {
			t.Fatalf("cut at %d replayed %d records, shorter cut replayed %d",
				n, boundaries[n], boundaries[n-1])
		}

		// Reopening must truncate the torn tail and keep appending cleanly.
		j, err := OpenJournal(probe)
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", n, err)
		}
		if err := j.Append(sampleState(100 + n)); err != nil {
			t.Fatalf("cut at %d: append after reopen: %v", n, err)
		}
		j.Close()
		again := replayAll(t, probe)
		if len(again) != boundaries[n]+1 {
			t.Fatalf("cut at %d: replay after reopen+append got %d records, want %d",
				n, len(again), boundaries[n]+1)
		}
		if !reflect.DeepEqual(again[len(again)-1], sampleState(100+n)) {
			t.Fatalf("cut at %d: appended record corrupted", n)
		}
	}
	if boundaries[len(raw)] != records {
		t.Fatalf("uncut journal replayed %d records, want %d", boundaries[len(raw)], records)
	}
}

// TestJournalBitFlip: corruption inside a committed record must not
// surface that record (CRC catches it); replay stops at the last record
// before the damage.
func TestJournalBitFlip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flip.journal")
	appendRecords(t, path, 0, 3)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the back third — inside the last record's payload.
	mut := append([]byte(nil), raw...)
	mut[len(mut)-3] ^= 0x40
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) >= 3 {
		t.Fatalf("bit-flipped record survived replay: %d records", len(got))
	}
	for i, st := range got {
		if !reflect.DeepEqual(st, sampleState(i)) {
			t.Errorf("record %d corrupted by later bit flip", i)
		}
	}
}

func TestJournalRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.journal")
	if err := os.WriteFile(path, []byte("PLAINTEXT, definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); !errors.Is(err, ErrNotJournal) {
		t.Errorf("OpenJournal on a foreign file: %v, want ErrNotJournal", err)
	}
	if err := ReplayJournal(path, func(func(any) error) error { return nil }); !errors.Is(err, ErrNotJournal) {
		t.Errorf("ReplayJournal on a foreign file: %v, want ErrNotJournal", err)
	}
}

func TestJournalRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.journal")
	appendRecords(t, path, 0, 6)
	// Compaction: replace six records with one summary record.
	j, err := RewriteJournal(path, sampleState(42))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	got := replayAll(t, path)
	if len(got) != 1 || !reflect.DeepEqual(got[0], sampleState(42)) {
		t.Fatalf("rewritten journal replays %+v", got)
	}
	// And the rewritten journal accepts appends.
	appendRecords(t, path, 7, 8)
	if got := replayAll(t, path); len(got) != 2 {
		t.Fatalf("append after rewrite: %d records, want 2", len(got))
	}
}

func TestReplayMissingJournalIsEmpty(t *testing.T) {
	err := ReplayJournal(filepath.Join(t.TempDir(), "absent.journal"), func(func(any) error) error {
		t.Error("decode called for a missing journal")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
