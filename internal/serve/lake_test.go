package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"iolayers/internal/checkpoint"
	"iolayers/internal/core"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/obsv"
	"iolayers/internal/report"
)

func openLake(t testing.TB, dir string, compactEvery int) *Lake {
	t.Helper()
	l, err := OpenLake(LakeConfig{Dir: dir, CompactEvery: compactEvery, Metrics: obsv.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func lakeStore(t testing.TB, l *Lake) *Store {
	t.Helper()
	st, err := NewStoreWithLake(l)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// renderedGen renders one snapshot the way /v1/report does at format=text,
// whole-report — the byte-identity token the lake must preserve.
func renderedGen(snap *Snapshot) string { return report.Everything(snap.Report) }

// TestLakeRestartRecoversGenerations is the basic durability contract:
// ingest several generations from mixed source kinds, reopen the lake in
// a fresh store (a restart), and require every dataset back at its last
// committed generation with a byte-identical report — at more than one
// worker count.
func TestLakeRestartRecoversGenerations(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := corpusDir(t, 4)
			adir := t.TempDir()
			archive := corpusArchive(t, adir, 3)
			columnar := filepath.Join(adir, "campaign.dgc")
			if _, err := core.ConvertArchive(context.Background(), archive, columnar, core.ConvertOptions{}); err != nil {
				t.Fatal(err)
			}
			sys := systems.NewSummit()
			opts := core.IngestOptions{Workers: workers}

			lakeDir := t.TempDir()
			st := lakeStore(t, openLake(t, lakeDir, 0))
			want := map[string]string{}
			wantGen := map[string]uint64{}
			for _, ing := range []struct{ ds, src string }{
				{"prod", dir}, {"prod", archive}, {"prod", columnar},
				{"other", dir},
			} {
				snap, _, err := st.Ingest(context.Background(), ing.ds, sys, ing.src, opts)
				if err != nil {
					t.Fatalf("ingest %s <- %s: %v", ing.ds, ing.src, err)
				}
				if len(snap.Sources) != int(snap.Gen) {
					t.Errorf("%s gen %d has %d sources", ing.ds, snap.Gen, len(snap.Sources))
				}
				want[ing.ds] = renderedGen(snap)
				wantGen[ing.ds] = snap.Gen
			}

			// "Restart": a brand-new lake handle and store over the same dir.
			// The old handles are simply abandoned, as a kill -9 would leave
			// them.
			st2 := lakeStore(t, openLake(t, lakeDir, 0))
			for ds, wantRep := range want {
				snap, ok := st2.Get(ds)
				if !ok {
					t.Fatalf("dataset %s lost across restart", ds)
				}
				if snap.Gen != wantGen[ds] {
					t.Errorf("%s recovered at gen %d, want %d", ds, snap.Gen, wantGen[ds])
				}
				if got := renderedGen(snap); got != wantRep {
					t.Errorf("%s gen %d report differs after recovery", ds, snap.Gen)
				}
				if len(snap.Sources) != int(wantGen[ds]) {
					t.Errorf("%s recovered %d sources, want %d", ds, len(snap.Sources), wantGen[ds])
				}
			}
			// Ingest continues cleanly after recovery, extending the history.
			snap, _, err := st2.Ingest(context.Background(), "prod", sys, dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Gen != wantGen["prod"]+1 {
				t.Errorf("post-recovery ingest published gen %d, want %d", snap.Gen, wantGen["prod"]+1)
			}
		})
	}
}

// TestLakeMatchesMemoryStore pins the delta+merge ingestion path to the
// in-memory behavior: the same sequence of ingests through a lake-backed
// store, a plain store, and recovery must all render byte-identical
// reports. This is the referee for the claim that merging persisted
// segments equals folding straight in.
func TestLakeMatchesMemoryStore(t *testing.T) {
	dir := corpusDir(t, 5)
	sys := systems.NewSummit()
	opts := core.IngestOptions{Workers: 2}

	mem := NewStore()
	var memRep string
	for i := 0; i < 3; i++ {
		snap, _, err := mem.Ingest(context.Background(), "ds", sys, dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		memRep = renderedGen(snap)
	}

	lakeDir := t.TempDir()
	st := lakeStore(t, openLake(t, lakeDir, 0))
	var lakeRep string
	for i := 0; i < 3; i++ {
		snap, _, err := st.Ingest(context.Background(), "ds", sys, dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		lakeRep = renderedGen(snap)
	}
	if lakeRep != memRep {
		t.Error("lake-backed store rendered a different report than the memory store")
	}

	rec, ok := lakeStore(t, openLake(t, lakeDir, 0)).Get("ds")
	if !ok || renderedGen(rec) != memRep {
		t.Error("recovered report differs from the memory store's")
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		out := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		o, err := os.Create(out)
		if err != nil {
			return err
		}
		defer o.Close()
		_, err = io.Copy(o, in)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// lakeFrames parses a dataset log's framing: the offset each record's
// frame starts at, plus the end of the file.
func lakeFrames(t *testing.T, raw []byte) []int {
	t.Helper()
	const magicLen, frameHeader = 8, 8
	var starts []int
	off := magicLen
	for off < len(raw) {
		starts = append(starts, off)
		off += frameHeader + int(binary.LittleEndian.Uint32(raw[off:]))
	}
	if off != len(raw) {
		t.Fatalf("log does not end on a frame boundary: %d of %d", off, len(raw))
	}
	return append(starts, len(raw))
}

// killPoints lists where a dataset log is cut: every byte of the magic and
// of each frame header, the first and last 16 bytes of each payload, and a
// stride through payload interiors.
func killPoints(frames []int) []int {
	const frameHeader, edge, stride = 8, 16, 97
	var cuts []int
	for n := 0; n <= frames[0]; n++ {
		cuts = append(cuts, n)
	}
	for i := 0; i+1 < len(frames); i++ {
		payload, end := frames[i]+frameHeader, frames[i+1]
		for n := frames[i] + 1; n <= end; n++ {
			if n <= payload+edge || n >= end-edge || (n-payload)%stride == 0 {
				cuts = append(cuts, n)
			}
		}
	}
	return cuts
}

// TestLakeKillAtEveryJournalByte is the crash-recovery property test, in
// the spirit of internal/core/resume_test.go. A commit is one append to one
// file, so truncating a dataset's log at byte N is exactly the disk state a
// kill -9 at instant N of the commit sequence leaves behind — the whole
// commit, data and commit point alike. For every cut (killPoints),
// recovery must come up with the cut dataset at the generation whose record
// is still fully durable — never a torn or half-applied one — and the
// other dataset untouched, each rendering the byte-identical report
// captured when that generation was first published, across worker counts.
func TestLakeKillAtEveryJournalByte(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-point sweep in -short mode")
	}
	dir := corpusDir(t, 3)
	adir := t.TempDir()
	archive := corpusArchive(t, adir, 2)
	sys := systems.NewSummit()

	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			lakeDir := t.TempDir()
			st := lakeStore(t, openLake(t, lakeDir, 0))
			// rendered[ds][gen] is the report served when gen was published.
			rendered := map[string]map[uint64]string{}
			for _, ing := range []struct{ ds, src string }{
				{"alpha", dir}, {"beta", archive}, {"alpha", archive}, {"beta", dir},
			} {
				snap, _, err := st.Ingest(context.Background(), ing.ds, sys, ing.src,
					core.IngestOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if rendered[ing.ds] == nil {
					rendered[ing.ds] = map[uint64]string{}
				}
				rendered[ing.ds][snap.Gen] = renderedGen(snap)
			}

			for cutDS := range rendered {
				rel := filepath.Join("datasets", cutDS, lakeLogName)
				raw, err := os.ReadFile(filepath.Join(lakeDir, rel))
				if err != nil {
					t.Fatal(err)
				}
				frames := lakeFrames(t, raw)
				for _, n := range killPoints(frames) {
					crashDir := filepath.Join(t.TempDir(), "lake")
					copyTree(t, lakeDir, crashDir)
					if err := os.WriteFile(filepath.Join(crashDir, rel), raw[:n], 0o644); err != nil {
						t.Fatal(err)
					}
					// Generations are 1, 2, … with no compaction: the cut
					// dataset is at the count of frames that still end
					// inside the file, every other dataset at its last.
					committed := map[string]uint64{}
					for ds, gens := range rendered {
						committed[ds] = uint64(len(gens))
					}
					committed[cutDS] = 0
					for _, end := range frames[1:] {
						if end <= n {
							committed[cutDS]++
						}
					}

					l, err := OpenLake(LakeConfig{Dir: crashDir})
					if err != nil {
						t.Fatalf("%s cut at %d: reopening lake: %v", cutDS, n, err)
					}
					rec, err := NewStoreWithLake(l)
					if err != nil {
						l.Close()
						t.Fatalf("%s cut at %d: recovery: %v", cutDS, n, err)
					}
					for ds, gens := range rendered {
						snap, ok := rec.Get(ds)
						wantGen := committed[ds]
						if ok != (wantGen > 0) {
							t.Fatalf("%s cut at %d: dataset %s present=%v, want gen %d", cutDS, n, ds, ok, wantGen)
						}
						if !ok {
							continue
						}
						if snap.Gen != wantGen {
							t.Fatalf("%s cut at %d: %s at gen %d, want last committed %d", cutDS, n, ds, snap.Gen, wantGen)
						}
						if renderedGen(snap) != gens[wantGen] {
							t.Fatalf("%s cut at %d: %s gen %d report differs from pre-kill rendering", cutDS, n, ds, wantGen)
						}
					}
					l.Close()
				}
			}
		})
	}
}

// TestLakeKillAroundCompaction is the compaction leg of the kill sweep.
// Compaction is one atomic file replacement, so it has two windows: killed
// before the rename the old log stands (beside a `log.tmp*` of any length,
// which recovery sweeps and counts); killed after it the new single-record
// log does. Both recover the same generation with the same bytes.
func TestLakeKillAroundCompaction(t *testing.T) {
	dir := corpusDir(t, 3)
	sys := systems.NewSummit()
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// The same three ingests, never compacted and compacted at 3.
			lakes := map[bool]string{}
			var want string
			for _, compacted := range []bool{false, true} {
				lakes[compacted] = t.TempDir()
				every := -1
				if compacted {
					every = 3
				}
				st := lakeStore(t, openLake(t, lakes[compacted], every))
				for i := 0; i < 3; i++ {
					snap, _, err := st.Ingest(context.Background(), "ds", sys, dir, core.IngestOptions{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					want = renderedGen(snap)
				}
			}
			logOf := func(lake string) string { return filepath.Join(lake, "datasets", "ds", lakeLogName) }
			newLog, err := os.ReadFile(logOf(lakes[true]))
			if err != nil {
				t.Fatal(err)
			}

			recoverAt := func(lake string, wantRecords, wantSwept int64) {
				t.Helper()
				metrics := obsv.New()
				l, err := OpenLake(LakeConfig{Dir: lake, Metrics: metrics})
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				snap, ok := lakeStore(t, l).Get("ds")
				if !ok || snap.Gen != 3 || renderedGen(snap) != want {
					t.Fatalf("recovered %+v, want gen 3 with the pre-kill report", snap)
				}
				if got := metrics.Counter("serve.lake.recovered_segments").Value(); got != wantRecords {
					t.Errorf("recovery merged %d records, want %d", got, wantRecords)
				}
				if got := metrics.Counter("serve.lake.orphans_swept").Value(); got != wantSwept {
					t.Errorf("orphans_swept = %d, want %d", got, wantSwept)
				}
				if names := lakeFiles(t, lake); len(names) != 1 || names[0] != filepath.Join("datasets", "ds", lakeLogName) {
					t.Errorf("lake holds %v after recovery, want the one log", names)
				}
			}
			// Killed before the rename, at three instants of the temp's life.
			for _, n := range []int{0, len(newLog) / 2, len(newLog)} {
				crashDir := filepath.Join(t.TempDir(), "lake")
				copyTree(t, lakes[false], crashDir)
				if err := os.WriteFile(logOf(crashDir)+".tmp123456", newLog[:n], 0o600); err != nil {
					t.Fatal(err)
				}
				recoverAt(crashDir, 3, 1)
			}
			// Killed after it.
			recoverAt(lakes[true], 1, 0)
		})
	}
}

// lakeFiles lists every regular file under a lake, relative to it.
func lakeFiles(t *testing.T, lake string) []string {
	t.Helper()
	var names []string
	err := filepath.Walk(lake, func(p string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			rel, _ := filepath.Rel(lake, p)
			names = append(names, rel)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// closedLake ingests two generations into each of datasets a, b and c and
// closes the lake: what a clean shutdown leaves on disk.
func closedLake(t *testing.T) (lakeDir string, want map[string]string) {
	t.Helper()
	dir := corpusDir(t, 2)
	sys := systems.NewSummit()
	lakeDir = t.TempDir()
	l, err := OpenLake(LakeConfig{Dir: lakeDir})
	if err != nil {
		t.Fatal(err)
	}
	st := lakeStore(t, l)
	want = map[string]string{}
	for _, ds := range []string{"a", "b", "c"} {
		for i := 0; i < 2; i++ {
			snap, _, err := st.Ingest(context.Background(), ds, sys, dir, core.IngestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want[ds] = renderedGen(snap)
		}
	}
	l.Close()
	return lakeDir, want
}

// bootLake is one restart over lakeDir: open, recover, close.
func bootLake(t *testing.T, lakeDir string) error {
	t.Helper()
	l, err := OpenLake(LakeConfig{Dir: lakeDir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, err = NewStoreWithLake(l)
	return err
}

// TestLakeFlippedBitFailsBootNamingDataset: one flipped bit in the first
// record of the lake-wide journal used to boot clean with zero datasets —
// the damage was taken for a torn tail, the journal cut to its header, and
// every segment file then deleted as an orphan. Damage now fails the boot
// naming the dataset, nothing on disk changes, and with the damaged
// directory moved aside the other datasets recover intact.
func TestLakeFlippedBitFailsBootNamingDataset(t *testing.T) {
	lakeDir, want := closedLake(t)
	path := filepath.Join(lakeDir, "datasets", "b", lakeLogName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[lakeFrames(t, raw)[0]+8+40] ^= 0x04 // inside record 0's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	before := map[string][]byte{}
	for _, rel := range lakeFiles(t, lakeDir) {
		raw, err := os.ReadFile(filepath.Join(lakeDir, rel))
		if err != nil {
			t.Fatal(err)
		}
		before[rel] = raw
	}

	err = bootLake(t, lakeDir)
	var corrupt *checkpoint.CorruptError
	if !errors.As(err, &corrupt) || !strings.Contains(err.Error(), `dataset "b"`) {
		t.Fatalf("boot over a damaged log: err = %v, want a corruption error naming dataset \"b\"", err)
	}
	after := lakeFiles(t, lakeDir)
	if len(after) != len(before) {
		t.Fatalf("the refused boot changed the lake's files: %v", after)
	}
	for _, rel := range after {
		raw, _ := os.ReadFile(filepath.Join(lakeDir, rel))
		if !bytes.Equal(raw, before[rel]) {
			t.Errorf("%s was modified by the refused boot", rel)
		}
	}

	if err := os.Rename(filepath.Join(lakeDir, "datasets", "b"), filepath.Join(t.TempDir(), "b.damaged")); err != nil {
		t.Fatal(err)
	}
	rec := lakeStore(t, openLake(t, lakeDir, 0))
	for _, ds := range []string{"a", "c"} {
		snap, ok := rec.Get(ds)
		if !ok || snap.Gen != 2 || renderedGen(snap) != want[ds] {
			t.Errorf("%s after moving the damage aside: %+v, want gen 2 with the original report", ds, snap)
		}
	}
	if _, ok := rec.Get("b"); ok {
		t.Error("the dataset that was moved aside came back")
	}
}

// TestLakeStateFlipSweep: a lake segment used to be a bare gob stream, so
// bit rot in it went undetected until a render was wrong. Every flip, at a
// stride through the State payload of a record that is not the log's last,
// must now fail the boot.
func TestLakeStateFlipSweep(t *testing.T) {
	lakeDir, _ := closedLake(t)
	path := filepath.Join(lakeDir, "datasets", "b", lakeLogName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames := lakeFrames(t, raw)
	for at := frames[0] + 8; at < frames[1]; at += 53 {
		mut := append([]byte(nil), raw...)
		mut[at] ^= 1 << (at % 8)
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := bootLake(t, lakeDir); err == nil {
			t.Fatalf("flip at byte %d of record 0's state recovered without error", at)
		}
	}
}

// TestLakeRefusesWhatItCannotTrust covers the refusals that are not CRC
// failures: the layout this one replaced, a log whose generations do not
// run consecutively, a record in the gob-struct format that came before
// the binary record layout, and a record whose state is in a retired
// version of the state layout.
func TestLakeRefusesWhatItCannotTrust(t *testing.T) {
	old := t.TempDir()
	journal := filepath.Join(old, "journal")
	if err := os.WriteFile(journal, []byte("DGJRNL\x00\x01 and the rest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLake(LakeConfig{Dir: old}); err == nil || !strings.Contains(err.Error(), "old layout") || !strings.Contains(err.Error(), "re-ingest") {
		t.Errorf("OpenLake over a lake-wide journal: %v, want a refusal naming the old layout and the way out", err)
	}
	if names := lakeFiles(t, old); len(names) != 1 || names[0] != "journal" {
		t.Errorf("the refused old lake now holds %v", names)
	}

	dir := corpusDir(t, 2)
	sys := systems.NewSummit()
	lakeDir := t.TempDir()
	l, err := OpenLake(LakeConfig{Dir: lakeDir})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := lakeStore(t, l).Ingest(context.Background(), "ds", sys, dir, core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	for _, gen := range []uint64{1, 3} { // a repeat, a gap
		j, err := checkpoint.RewriteJournal(filepath.Join(lakeDir, "datasets", "ds", lakeLogName),
			&lakeRecord{System: snap.System, Gen: 1, Sources: snap.Sources, State: snap.agg.State()},
			&lakeRecord{System: snap.System, Gen: gen, Sources: snap.Sources, State: snap.agg.State()})
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if err := bootLake(t, lakeDir); err == nil || !strings.Contains(err.Error(), `dataset "ds"`) || !strings.Contains(err.Error(), "skips or repeats") {
			t.Errorf("gen %d after gen 1: err = %v, want a refusal naming the dataset", gen, err)
		}
	}

	// The retired record: the same four fields, gob-encoded as a struct,
	// with the state a gob struct too (a few of its fields suffice).
	type retiredState struct {
		System string
		Logs   int64
		Jobs   map[uint64]struct{ UsedStdio bool }
	}
	type retiredRecord struct {
		System  string
		Gen     uint64
		Sources []string
		State   *retiredState
	}
	logPath := filepath.Join(lakeDir, "datasets", "ds", lakeLogName)
	j, err := checkpoint.RewriteJournal(logPath, &retiredRecord{System: snap.System, Gen: 1, Sources: snap.Sources,
		State: &retiredState{System: snap.System, Logs: 2, Jobs: map[uint64]struct{ UsedStdio bool }{1000: {true}}}})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	err = bootLake(t, lakeDir)
	if err == nil || !strings.Contains(err.Error(), `dataset "ds"`) || !strings.Contains(err.Error(), "retired gob-struct lake record format") || !strings.Contains(err.Error(), "re-ingest") {
		t.Errorf("a record in the retired format: err = %v, want a refusal naming the dataset, the format and the way out", err)
	}
	if after, _ := os.ReadFile(logPath); !bytes.Equal(after, before) {
		t.Error("the refused log was modified")
	}

	// A record of today's layout whose state is in layout version 1.
	v1, err := hex.DecodeString(stateV1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := (&lakeRecord{System: snap.System, Gen: 1, Sources: snap.Sources, State: snap.agg.State()}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	state, err := snap.agg.State().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rec = append(rec[:len(rec)-len(state)], v1...)
	if j, err = checkpoint.RewriteJournal(logPath, recordBytes(rec)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if before, err = os.ReadFile(logPath); err != nil {
		t.Fatal(err)
	}
	err = bootLake(t, lakeDir)
	if err == nil || !strings.Contains(err.Error(), `dataset "ds"`) || !strings.Contains(err.Error(), "gen 1: analysis: state layout version 1,") || !strings.Contains(err.Error(), "re-ingest") {
		t.Errorf("a record holding a version-1 state: err = %v, want a refusal naming the dataset, the version and the way out", err)
	}
	if after, _ := os.ReadFile(logPath); !bytes.Equal(after, before) {
		t.Error("the log refused for its state version was modified")
	}
}

// stateV1 is an empty Summit aggregator's state in layout version 1 of
// analysis.AggregatorState's binary layout, which this build refuses.
const stateV1 = "010653756d6d69748010000000000000000000000000000000000000000000000000000000000000000000000000000600000000000006000000000000000a000000000000000000000a000000000000000000000a000000000000000000000a000000000000000000000000000000000000000a000000000000000000000a0000000000000000000000000000000000000600000000000006000000000000000a000000000000000000000a000000000000000000000a000000000000000000000a000000000000000000000000000000000000000a000000000000000000000a000000000000000000000000000000"

// TestLakeCompaction checks the bounded-recovery invariant: past the
// threshold, a dataset's log is atomically replaced by the single record of
// its frozen fold, nothing else is left in the lake — and recovery from the
// compacted log is byte-identical.
func TestLakeCompaction(t *testing.T) {
	dir := corpusDir(t, 3)
	sys := systems.NewSummit()
	lakeDir := t.TempDir()
	metrics := obsv.New()
	l, err := OpenLake(LakeConfig{Dir: lakeDir, CompactEvery: 3, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	st := lakeStore(t, l)

	var last *Snapshot
	for i := 0; i < 4; i++ {
		if last, _, err = st.Ingest(context.Background(), "ds", sys, dir, core.IngestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := metrics.Counter("serve.lake.compactions").Value(); got != 1 {
		t.Fatalf("compactions = %d, want 1 (threshold 3, 4 ingests)", got)
	}
	// Gen 1-3 folded into one record; gen 4's delta follows it in the same
	// file, which is the only file the lake holds.
	logRel := filepath.Join("datasets", "ds", lakeLogName)
	if names := lakeFiles(t, lakeDir); len(names) != 1 || names[0] != logRel {
		t.Fatalf("lake after compaction holds %v, want exactly %s", names, logRel)
	}
	if fi, err := os.Stat(filepath.Join(lakeDir, logRel)); err != nil || fi.Mode().Perm() != 0o644 {
		t.Errorf("compacted log: %v mode %v, want 0644 like the log it replaced", err, fi.Mode().Perm())
	}
	if got := l.log("ds").Records(); got != 2 {
		t.Fatalf("log holds %d live records, want 2 (compact + gen-4 delta)", got)
	}

	recMetrics := obsv.New()
	l2, err := OpenLake(LakeConfig{Dir: lakeDir, Metrics: recMetrics})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rec := lakeStore(t, l2)
	snap, ok := rec.Get("ds")
	if !ok || snap.Gen != 4 {
		t.Fatalf("recovered gen %d, want 4", snap.Gen)
	}
	if renderedGen(snap) != renderedGen(last) {
		t.Error("report after compacted recovery differs from pre-compaction rendering")
	}
	if got := recMetrics.Counter("serve.lake.recovered_segments").Value(); got != 2 {
		t.Errorf("recovery merged %d records, want 2 (compact + one delta)", got)
	}
	if len(snap.Sources) != 4 {
		t.Errorf("recovered %d sources, want 4 (3 in the compact record + 1 delta)", len(snap.Sources))
	}
}

// TestLakeCommitFailureKeepsGeneration: a dataset whose lake commit fails
// (log unwritable) must keep serving its current generation and must
// not advance, mirroring the no-publish-on-error contract.
func TestLakeCommitFailureKeepsGeneration(t *testing.T) {
	dir := corpusDir(t, 2)
	sys := systems.NewSummit()
	lakeDir := t.TempDir()
	l := openLake(t, lakeDir, 0)
	st := lakeStore(t, l)
	if _, _, err := st.Ingest(context.Background(), "ds", sys, dir, core.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	// Sabotage the dataset's log handle: further appends must fail.
	l.log("ds").Close()
	if _, _, err := st.Ingest(context.Background(), "ds", sys, dir, core.IngestOptions{}); err == nil {
		t.Fatal("ingest succeeded with a dead log")
	}
	snap, ok := st.Get("ds")
	if !ok || snap.Gen != 1 {
		t.Fatalf("failed commit moved the dataset to gen %d, want 1", snap.Gen)
	}
}

// TestLakeLogBytesAreDeterministic: two lakes that ingest the same sources
// in the same order hold byte-identical logs, across a compaction too.
// This is what lets a hash of a log, or of a record's state, name the
// content it holds.
func TestLakeLogBytesAreDeterministic(t *testing.T) {
	dir := corpusDir(t, 3)
	sources := []string{dir, filepath.Join(dir, "job00001.darshan"), filepath.Join(dir, "job00000.darshan"), dir}
	sys := systems.NewSummit()
	var logs [2][]byte
	for i := range logs {
		lakeDir := t.TempDir()
		metrics := obsv.New()
		l, err := OpenLake(LakeConfig{Dir: lakeDir, CompactEvery: 3, Metrics: metrics})
		if err != nil {
			t.Fatal(err)
		}
		st := lakeStore(t, l)
		for _, src := range sources {
			if _, _, err := st.Ingest(context.Background(), "ds", sys, src, core.IngestOptions{Workers: 1 + 3*i}); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		if got := metrics.Counter("serve.lake.compactions").Value(); got != 1 {
			t.Fatalf("lake %d compacted %d times, want 1", i, got)
		}
		if logs[i], err = os.ReadFile(filepath.Join(lakeDir, "datasets", "ds", lakeLogName)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Errorf("two lakes given the same ingests hold different logs (%d and %d bytes)", len(logs[0]), len(logs[1]))
	}
}

// weightRecords is TestLakeRecordWeight's lake: a 32-log fixture folded
// as generation 1, then 17 of its logs one at a time, at the default
// compaction threshold. It returns the records the dataset's log holds.
func weightRecords(t testing.TB) []lakeRecord {
	t.Helper()
	sys := systems.NewSummit()
	dir := filepath.Join(t.TempDir(), "fixture")
	if err := WriteFixture(dir, sys, 32, 5); err != nil {
		t.Fatal(err)
	}
	lakeDir := t.TempDir()
	st := lakeStore(t, openLake(t, lakeDir, 0))
	sources := []string{dir}
	for i := 0; i < 17; i++ {
		sources = append(sources, filepath.Join(dir, fmt.Sprintf("fixture%05d.darshan", i)))
	}
	for _, src := range sources {
		if _, _, err := st.Ingest(context.Background(), "fx", sys, src, core.IngestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	var recs []lakeRecord
	err := checkpoint.ReplayJournal(filepath.Join(lakeDir, "datasets", "fx", lakeLogName), func(decode func(any) error) error {
		var rec lakeRecord
		err := decode(&rec)
		recs = append(recs, rec)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestLakeRecordWeight pins what a lake stores, so that a change to the
// record or state layout, or to what the fold keeps, shows up as a
// committed number. A 32-log fixture is folded as generation 1, then 17
// of its logs one at a time, into a lake at the default compaction
// threshold: generations 1–16 compact into one record, and 17 and 18
// follow it as deltas. The compact record's state bytes are pinned by
// length and SHA-256, and the first delta's, one log's state, by length;
// their sources are not, because they hold temp-dir paths. The source
// list is front-coded, so once the list is into the directory's files each
// generation adds a file name's tail, not a path.
func TestLakeRecordWeight(t *testing.T) {
	const (
		wantStateLen = 552
		wantStateSum = "013a4ee31802e3a86f3925f47aa13c34c5e0786ecaa807e8fe52bf2069689225"
		wantDeltaLen = 147
		maxSourceB   = 16
	)
	recs := weightRecords(t)
	if len(recs) != 3 || recs[0].Gen != DefaultCompactEvery || len(recs[0].Sources) != DefaultCompactEvery {
		t.Fatalf("log holds %d records, the first at gen %d with %d sources; want a compact record of gens 1–%d and two deltas",
			len(recs), recs[0].Gen, len(recs[0].Sources), DefaultCompactEvery)
	}
	state, err := recs[0].State.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(state)); len(state) != wantStateLen || sum != wantStateSum {
		t.Errorf("compact record state: %d bytes, sha256 %s; pinned %d bytes, %s", len(state), sum, wantStateLen, wantStateSum)
	}
	if delta, err := recs[1].State.MarshalBinary(); err != nil || len(delta) != wantDeltaLen {
		t.Errorf("one-log delta state: %d bytes (%v); pinned %d bytes", len(delta), err, wantDeltaLen)
	}
	for g := 3; g <= len(recs[0].Sources); g++ {
		added := len(appendSources(nil, recs[0].Sources[:g])) - len(appendSources(nil, recs[0].Sources[:g-1]))
		if added > maxSourceB {
			t.Errorf("generation %d adds %d B to the compact record's source list, want at most %d", g, added, maxSourceB)
		}
	}
}

// FuzzLakeRecord feeds the lake record decoder arbitrary bytes. It must
// never panic, and whatever it accepts must re-encode to bytes that decode
// to the same record and encode again to the same bytes.
func FuzzLakeRecord(f *testing.F) {
	for _, rec := range weightRecords(f) {
		b, err := rec.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var first lakeRecord
		if first.UnmarshalBinary(data) != nil {
			return
		}
		enc, err := first.MarshalBinary()
		if err != nil {
			t.Fatalf("a decoded record does not encode: %v", err)
		}
		var second lakeRecord
		if err := second.UnmarshalBinary(enc); err != nil {
			t.Fatalf("the decoder refuses what the encoder wrote: %v", err)
		}
		if again, err := second.MarshalBinary(); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding a decoded record changed its bytes (%v)", err)
		}
		// reflect.DeepEqual holds NaN unequal to itself; a record whose
		// state holds one is judged by its bytes alone.
		var third lakeRecord
		third.UnmarshalBinary(enc)
		if reflect.DeepEqual(&second, &third) && !reflect.DeepEqual(&first, &second) {
			t.Fatal("decode → encode → decode changed the record")
		}
	})
}
