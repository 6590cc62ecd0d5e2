package analysis

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"iolayers/internal/darshan"
	"iolayers/internal/iosim"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/units"
)

// stateLogs builds a varied mix of logs touching both layers, several
// interfaces, shared files, domains, and tuning signals — enough to
// populate every field a snapshot must carry.
func stateLogs(t testing.TB, sys *iosim.System) []*darshan.Log {
	t.Helper()
	var logs []*darshan.Log
	logs = append(logs, buildLog(t, sys, 100, 2048, "Physics", func(c *iosim.Client) {
		c.Write(darshan.ModulePOSIX, "/gpfs/alpine/big.h5", 0, 3*units.MiB, 0)
		c.Write(darshan.ModuleSTDIO, "/gpfs/alpine/out.log", 0, 4096, 0)
	}))
	logs = append(logs, buildLog(t, sys, 101, 4, "Chemistry", func(c *iosim.Client) {
		c.Read(darshan.ModulePOSIX, "/gpfs/alpine/in.dat", 0, units.MiB, 0)
		c.Write(darshan.ModulePOSIX, "/mnt/bb/ck.0", 0, 2*units.MiB, 0)
	}))
	logs = append(logs, buildLog(t, sys, 102, 8, "", func(c *iosim.Client) {
		c.Write(darshan.ModulePOSIX, "/gpfs/alpine/shared.h5", darshan.SharedRank, 8*units.MiB, 0)
	}))
	return logs
}

// TestStateRoundTrip checks the full snapshot path the campaign checkpoint
// relies on: State → gob → NewAggregatorFromState, then further logs folded
// into both the original and the restored aggregator, must yield reports
// that are deeply equal.
func TestStateRoundTrip(t *testing.T) {
	sys := systems.NewSummit()
	orig := NewAggregator(sys)
	logs := stateLogs(t, sys)
	orig.AddLog(logs[0])
	orig.AddLog(logs[1])

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(orig.State()); err != nil {
		t.Fatalf("encoding state: %v", err)
	}
	var st AggregatorState
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatalf("decoding state: %v", err)
	}
	restored, err := NewAggregatorFromState(sys, &st)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}

	// Both continue with the same remaining log.
	orig.AddLog(logs[2])
	restored.AddLog(logs[2])

	ra, rb := orig.Report(), restored.Report()
	if !reflect.DeepEqual(ra, rb) {
		t.Errorf("restored report differs:\n orig %+v\n rest %+v", ra, rb)
	}
}

// TestMergeStateRebuildsFromSegments models the durable lake's recovery
// path: each ingest's contribution is snapshotted as its own
// AggregatorState (a segment), gob round-tripped as the journaled segment
// files are, and an aggregator rebuilt by merging the segments in commit
// order must report exactly what the never-persisted aggregator reports.
func TestMergeStateRebuildsFromSegments(t *testing.T) {
	sys := systems.NewSummit()
	logs := stateLogs(t, sys)

	seq := NewAggregator(sys)
	for _, l := range logs {
		seq.AddLog(l)
	}

	// Segment 1 holds the first log, segment 2 the remaining two — the
	// shared-domain/shared-user overlap across segments is the point.
	seg1, seg2 := NewAggregator(sys), NewAggregator(sys)
	seg1.AddLog(logs[0])
	seg2.AddLog(logs[1])
	seg2.AddLog(logs[2])

	gobTrip := func(st *AggregatorState) *AggregatorState {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatalf("encoding segment: %v", err)
		}
		var out AggregatorState
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Fatalf("decoding segment: %v", err)
		}
		return &out
	}

	rebuilt, err := NewAggregatorFromState(sys, gobTrip(seg1.State()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.MergeState(gobTrip(seg2.State())); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Report(), rebuilt.Report()) {
		t.Error("segment-rebuilt report differs from sequential fold")
	}

	// A foreign-system segment must be refused.
	alien := NewAggregator(systems.NewCori())
	if err := rebuilt.MergeState(alien.State()); err == nil {
		t.Error("merging a Cori segment into a Summit aggregator succeeded")
	}
}

// TestStateSnapshotIsolation checks a snapshot is unaffected by later
// AddLog calls on the source aggregator.
func TestStateSnapshotIsolation(t *testing.T) {
	sys := systems.NewSummit()
	a := NewAggregator(sys)
	logs := stateLogs(t, sys)
	a.AddLog(logs[0])
	st := a.State()
	before := st.Layers[0].Files
	a.AddLog(logs[1])
	a.AddLog(logs[2])
	if st.Layers[0].Files != before || st.Logs != 1 {
		t.Error("snapshot mutated by post-snapshot AddLog")
	}
	r1, err := NewAggregatorFromState(sys, st)
	if err != nil {
		t.Fatal(err)
	}
	if got := r1.Report().Summary.Logs; got != 1 {
		t.Errorf("restored snapshot has %d logs, want 1", got)
	}
}

// TestStateSystemMismatch checks restore refuses a foreign snapshot.
func TestStateSystemMismatch(t *testing.T) {
	a := NewAggregator(systems.NewSummit())
	if _, err := NewAggregatorFromState(systems.NewCori(), a.State()); err == nil {
		t.Error("expected error restoring a Summit snapshot onto Cori")
	}
}
