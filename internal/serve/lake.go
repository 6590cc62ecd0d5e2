package serve

// The dataset lake is what makes ioserved's datasets survive the process.
// A dataset on disk is one file, a checkpoint record log:
//
//	<lake>/datasets/<name>/log
//
// Every successful ingest appends one record to it — the ingested source
// folded into a fresh aggregator, as an analysis.AggregatorState — and the
// fsync'd append is the whole commit: the data and the commit point are the
// same write. A generation whose record is durable will be recovered
// byte-identically after any crash; a crash mid-append leaves a torn tail
// the next open truncates, exactly as if the ingest never ran.
//
// Recovery walks datasets/*/log, rebuilds each dataset's aggregator from
// its first record and merges the rest in order (analysis.MergeState — the
// same merge the parallel worker pool is already proven byte-exact on), and
// republishes the last committed generation. Compaction bounds that cost:
// once a log holds CompactEvery records, the current frozen aggregator
// state — by construction the fold of every one of them — atomically
// replaces the log as its single record. A crash before the rename leaves
// the old log, after it the new one; the only debris either window can
// leave is a `log.tmp*` file, swept at recovery. What recovery will not do
// is guess: a log that is damaged mid-file, skips or repeats a generation,
// or is for a system this build does not know fails the boot naming the
// dataset, and nothing in that dataset's directory is touched.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"iolayers/internal/analysis"
	"iolayers/internal/checkpoint"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/obsv"
)

// DefaultCompactEvery is how many records a dataset's log accumulates
// before compaction folds them into one, when the caller does not choose.
const DefaultCompactEvery = 16

// lakeLogName is a dataset's record log inside its directory.
const lakeLogName = "log"

// LakeConfig configures OpenLake.
type LakeConfig struct {
	// Dir is the lake directory; created if absent. Required.
	Dir string
	// CompactEvery is the per-dataset record count that triggers
	// compaction after a commit (0 means DefaultCompactEvery, negative
	// disables compaction).
	CompactEvery int
	// Metrics receives lake counters and recovery/compaction spans. Nil
	// disables instrumentation at zero cost.
	Metrics *obsv.Registry
}

// lakeRecord is one entry of a dataset's log: State is the fold of
// Sources, and the dataset is at generation Gen once this record is
// durable. A log's first record stands alone — a dataset's first ingest, or
// a compaction's frozen fold of everything before it, whose Sources is the
// cumulative list. Every later record is the delta of the one source it
// names, merged onto what precedes it, and must carry the next generation.
type lakeRecord struct {
	System  string
	Gen     uint64
	Sources []string
	State   *analysis.AggregatorState
}

// Lake is the disk half of a Store: one record log per dataset. All
// methods are safe for concurrent use; commits for different datasets
// share nothing but the logs map.
type Lake struct {
	dir          string
	compactEvery int
	metrics      *obsv.Registry

	// compacting counts compaction passes in flight, feeding the store's
	// maintenance view of readiness.
	compacting atomic.Int32

	// mu guards the logs map and nothing else: it is never held across a
	// write, fsync or rename. A log itself is only used under its dataset's
	// entry.ingestMu, or by Recover before any ingest can run.
	mu   sync.Mutex
	logs map[string]*checkpoint.Journal
}

// OpenLake opens (creating if needed) the lake at cfg.Dir; after OpenLake,
// Recover rebuilds the datasets. A directory still in the layout this one
// replaced — a lake-wide journal naming seg-*.ckpt segment files — is
// refused as found: nothing in it is migrated, truncated or deleted.
func OpenLake(cfg LakeConfig) (*Lake, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: lake directory is required")
	}
	if _, err := os.Stat(filepath.Join(cfg.Dir, "journal")); err == nil {
		return nil, fmt.Errorf("serve: lake %s is in the old layout (a lake-wide journal plus seg-*.ckpt segment files), which this version does not read: point -lake at an empty directory and re-ingest", cfg.Dir)
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "datasets"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating lake: %w", err)
	}
	compactEvery := cfg.CompactEvery
	if compactEvery == 0 {
		compactEvery = DefaultCompactEvery
	}
	return &Lake{
		dir:          cfg.Dir,
		compactEvery: compactEvery,
		metrics:      cfg.Metrics,
		logs:         map[string]*checkpoint.Journal{},
	}, nil
}

// Close releases every dataset log's handle. Commits after Close fail.
func (l *Lake) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var errs []error
	for _, log := range l.logs {
		errs = append(errs, log.Close())
	}
	return errors.Join(errs...)
}

// Dir returns the lake directory.
func (l *Lake) Dir() string { return l.dir }

func (l *Lake) logPath(dataset string) string {
	return filepath.Join(l.dir, "datasets", dataset, lakeLogName)
}

func (l *Lake) log(dataset string) *checkpoint.Journal {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.logs[dataset]
}

// setLog installs the dataset's open log and returns the one it replaces.
func (l *Lake) setLog(dataset string, log *checkpoint.Journal) *checkpoint.Journal {
	l.mu.Lock()
	defer l.mu.Unlock()
	old := l.logs[dataset]
	l.logs[dataset] = log
	return old
}

// commit persists one ingest: one record — the delta state and the source
// it is the fold of — appended to the dataset's log. Only when Append
// returns, the record fsync'd, is the generation committed; an error
// leaves the log at its last durable record. A dataset's first commit also
// creates its directory and log, and makes both directory entries durable.
func (l *Lake) commit(dataset, system string, gen uint64, source string, delta *analysis.AggregatorState) error {
	log := l.log(dataset)
	if log == nil {
		path := l.logPath(dataset)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("serve: lake dataset dir: %w", err)
		}
		checkpoint.SyncDir(filepath.Join(l.dir, "datasets"))
		var err error
		if log, err = checkpoint.OpenJournal(path); err != nil {
			return err
		}
		l.setLog(dataset, log)
	}
	if err := log.Append(&lakeRecord{System: system, Gen: gen, Sources: []string{source}, State: delta}); err != nil {
		return fmt.Errorf("serve: lake commit of %s gen %d: %w", dataset, gen, err)
	}
	l.metrics.Counter("serve.lake.segments_written").Add(1)
	return nil
}

// maybeCompact folds the dataset's log into one record once enough have
// accumulated. snap must be the just-published generation — its frozen
// aggregator *is* the fold of every record in the log, so compaction costs
// one State() walk and one atomic file replacement, never a re-fold. Runs
// after the commit that tripped the threshold; a failure is recorded but
// does not fail the ingest (the un-compacted log is still fully
// recoverable, and stays the one being appended to).
func (l *Lake) maybeCompact(snap *Snapshot) {
	if l.compactEvery < 0 || l.log(snap.Name).Records() < l.compactEvery {
		return
	}
	l.compacting.Add(1)
	defer l.compacting.Add(-1)
	timer := l.metrics.Span("lake-compact").Begin()
	defer timer.End()
	next, err := checkpoint.RewriteJournal(l.logPath(snap.Name),
		&lakeRecord{System: snap.System, Gen: snap.Gen, Sources: snap.Sources, State: snap.agg.State()})
	if err != nil {
		l.metrics.Counter("serve.lake.compact_errors").Add(1)
		return
	}
	l.setLog(snap.Name, next).Close()
	l.metrics.Counter("serve.lake.compactions").Add(1)
}

// Compacting reports whether a compaction pass is in flight.
func (l *Lake) Compacting() bool { return l.compacting.Load() > 0 }

// Recover rebuilds every committed dataset into store, publishes each at
// its last committed generation, and leaves each log open for the commits
// that follow. It also sweeps the one kind of debris a crash can leave: the
// temp file of a compaction that died before its rename. Recover is called
// once, before the store serves traffic.
func (l *Lake) Recover(store *Store) error {
	timer := l.metrics.Span("lake-recover").Begin()
	defer timer.End()
	root := filepath.Join(l.dir, "datasets")
	dirs, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("serve: reading lake: %w", err)
	}
	swept := 0
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		snap, err := l.recoverDataset(d.Name())
		if err != nil {
			return fmt.Errorf("serve: lake dataset %q: %w", d.Name(), err)
		}
		if snap != nil {
			store.publishRecovered(snap)
			l.metrics.Counter("serve.lake.recovered_datasets").Add(1)
		}
		swept += checkpoint.SweepTemps(filepath.Join(root, d.Name()), "", 0)
	}
	if swept > 0 {
		l.metrics.Counter("serve.lake.orphans_swept").Add(int64(swept))
	}
	return nil
}

// recoverDataset replays one dataset's log into a snapshot, or nil when
// the log holds no record (a first commit that never became durable).
func (l *Lake) recoverDataset(name string) (*Snapshot, error) {
	path := l.logPath(name)
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		return nil, nil // a crash between the mkdir and the log's creation
	}
	snap := &Snapshot{Name: name}
	log, err := checkpoint.RecoverJournal(path, func(decode func(v any) error) error {
		var rec lakeRecord
		if err := decode(&rec); err != nil {
			return err
		}
		if snap.agg == nil {
			sys := systems.ByName(rec.System)
			if sys == nil {
				return fmt.Errorf("gen %d is for unknown system %q", rec.Gen, rec.System)
			}
			agg, err := analysis.NewAggregatorFromState(sys, rec.State)
			if err != nil {
				return err
			}
			snap.System, snap.agg = sys.Name, agg
		} else if rec.Gen != snap.Gen+1 {
			return fmt.Errorf("gen %d follows gen %d: the log skips or repeats a generation", rec.Gen, snap.Gen)
		} else if err := snap.agg.MergeState(rec.State); err != nil {
			return err
		}
		snap.Gen = rec.Gen
		snap.Sources = append(snap.Sources, rec.Sources...)
		l.metrics.Counter("serve.lake.recovered_segments").Add(1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.setLog(name, log)
	if snap.agg == nil {
		return nil, nil
	}
	snap.Report = snap.agg.Report()
	return snap, nil
}
