// Package serve is the query side of the pipeline: a long-running service
// that holds the merged analysis state of one or more ingested campaigns
// ("datasets") in memory and renders the study's reports on demand.
//
// The concurrency discipline is copy-on-write. Each dataset publishes an
// immutable Snapshot — a frozen aggregator plus its derived report — and
// readers render from whatever snapshot they load, with no locks held
// while rendering. Re-ingestion clones the frozen aggregator, folds the
// new logs into the clone off to the side, and atomically publishes the
// clone as the next generation. Readers mid-render keep their old
// snapshot; the generation counter feeds the response cache key, so a
// publish naturally invalidates every cached rendering of the dataset.
package serve

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"

	"iolayers/internal/analysis"
	"iolayers/internal/core"
	"iolayers/internal/iosim"
)

// datasetNameRE bounds what a dataset may be called: names appear in URL
// paths and cache keys, so they are kept to a filename-safe alphabet.
var datasetNameRE = regexp.MustCompile(`^[a-zA-Z0-9._-]{1,64}$`)

// ValidDatasetName reports whether name is usable as a dataset name.
func ValidDatasetName(name string) bool { return datasetNameRE.MatchString(name) }

// Snapshot is one published generation of a dataset. It is immutable:
// every field is frozen at publish time, and the aggregator behind it is
// never folded into again (re-ingestion works on a clone). The one field
// filled later, selfCompare, memoizes a pure function of the others.
type Snapshot struct {
	Name   string
	System string
	// Gen increments on every successful ingest into the dataset; it is
	// the cache-invalidation token for everything rendered from this
	// snapshot.
	Gen    uint64
	Report *analysis.Report
	// Sources are the sources folded into the dataset, in ingest order,
	// one per generation: len(Sources) == Gen always. Successive
	// generations share one backing array (Store.Ingest appends to the
	// newest), so the slice is read-only.
	Sources []string

	agg *analysis.Aggregator // frozen; clone base for the next generation
	// selfCompare is the /v1/compare body of the dataset against itself,
	// rendered on first request (Server.selfCompare).
	selfCompare atomic.Pointer[[]byte]
}

// entry is the mutable cell a dataset lives in. Readers load cur without
// any lock; writers serialize on ingestMu. dead marks an entry that was
// garbage-collected after a failed first ingest — it is only ever set
// under ingestMu, and a writer that acquires the lock on a dead entry must
// drop it and re-create the dataset cell.
type entry struct {
	ingestMu sync.Mutex
	dead     bool
	cur      atomic.Pointer[Snapshot]
}

// Store maps dataset names to their current snapshots.
type Store struct {
	mu       sync.RWMutex
	datasets map[string]*entry
	// lake, when non-nil, makes generations durable: each ingest appends a
	// record to the dataset's log before publishing (see lake.go).
	lake *Lake
}

// NewStore builds an empty, memory-only store.
func NewStore() *Store {
	return &Store{datasets: map[string]*entry{}}
}

// NewStoreWithLake builds a store backed by the lake: every committed
// dataset is recovered and republished at its last committed generation
// before the store is returned, and every subsequent ingest is made
// durable before it is visible.
func NewStoreWithLake(l *Lake) (*Store, error) {
	s := NewStoreAttached(l)
	if err := s.RecoverLake(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewStoreAttached builds a store wired to the lake without recovering
// it — for servers that want to start answering health checks first and
// replay the lake behind a not-ready /readyz (call RecoverLake before
// accepting query traffic for the recovered datasets).
func NewStoreAttached(l *Lake) *Store {
	s := NewStore()
	s.lake = l
	return s
}

// RecoverLake replays the attached lake's dataset logs, republishing every
// committed dataset at its last committed generation. No-op without a
// lake. A server holds readiness down around it (Server.SetReady).
func (s *Store) RecoverLake() error {
	if s.lake == nil {
		return nil
	}
	return s.lake.Recover(s)
}

// publishRecovered installs a lake-recovered snapshot. Recovery runs
// before the store serves traffic, so there is no generation to race.
func (s *Store) publishRecovered(snap *Snapshot) {
	s.getOrCreate(snap.Name).cur.Store(snap)
}

// Get returns the current snapshot of the named dataset.
func (s *Store) Get(name string) (*Snapshot, bool) {
	s.mu.RLock()
	e := s.datasets[name]
	s.mu.RUnlock()
	if e == nil {
		return nil, false
	}
	snap := e.cur.Load()
	if snap == nil {
		return nil, false // created but first ingest hasn't published yet
	}
	return snap, true
}

// List returns the current snapshot of every dataset, sorted by name.
func (s *Store) List() []*Snapshot {
	s.mu.RLock()
	entries := make([]*entry, 0, len(s.datasets))
	for _, e := range s.datasets {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	out := make([]*Snapshot, 0, len(entries))
	for _, e := range entries {
		if snap := e.cur.Load(); snap != nil {
			out = append(out, snap)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (s *Store) getOrCreate(name string) *entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.datasets[name]
	if !ok {
		e = &entry{}
		s.datasets[name] = e
	}
	return e
}

// lockEntry returns the dataset's entry with its ingest lock held,
// re-fetching if the entry was garbage-collected between the map lookup
// and the lock acquisition (a concurrent first ingest that failed).
func (s *Store) lockEntry(name string) *entry {
	for {
		e := s.getOrCreate(name)
		e.ingestMu.Lock()
		if !e.dead {
			return e
		}
		e.ingestMu.Unlock()
	}
}

// gcIfEmpty reclaims an entry whose first ingest failed before anything
// was published: left in place it would be a permanent phantom —
// invisible to Get and List (nil snapshot) yet growing Store.datasets on
// every repeated bad upload. Called with e.ingestMu held.
func (s *Store) gcIfEmpty(name string, e *entry) {
	if e.cur.Load() != nil {
		return // an earlier generation exists; the dataset stays
	}
	e.dead = true
	s.mu.Lock()
	if s.datasets[name] == e {
		delete(s.datasets, name)
	}
	s.mu.Unlock()
}

// Ingest folds the logs at source (a directory of .darshan logs, a .dgar
// archive, a .dgc columnar campaign, or a single .darshan file — core.Open
// tells them apart by header, never by file name) into the named dataset
// and publishes the result as its next generation. Concurrent ingests into
// the same dataset serialize; concurrent readers keep rendering from the
// previous generation until the new one is published. On error — and an
// ingest that parsed nothing is an error, whatever kind of source it was —
// nothing is published (and nothing is committed to the lake) and the
// dataset keeps its current generation.
//
// The source always folds into a fresh aggregator — the ingest's *delta* —
// which then merges into a clone of the current generation. Merging
// partial aggregates is the worker pool's own accumulation step, already
// proven byte-identical to a sequential fold at any partitioning, and the
// delta is exactly what a lake-backed store persists as the generation's
// record.
func (s *Store) Ingest(ctx context.Context, name string, sys *iosim.System, source string, opts core.IngestOptions) (*Snapshot, core.IngestResult, error) {
	if !ValidDatasetName(name) {
		return nil, core.IngestResult{}, fmt.Errorf("serve: invalid dataset name %q", name)
	}
	if sys == nil {
		return nil, core.IngestResult{}, fmt.Errorf("serve: nil system")
	}
	e := s.lockEntry(name)
	defer e.ingestMu.Unlock()

	cur := e.cur.Load()
	if cur != nil && cur.System != sys.Name {
		return nil, core.IngestResult{}, fmt.Errorf("serve: dataset %q is %s data, cannot ingest %s logs",
			name, cur.System, sys.Name)
	}
	delta := analysis.NewAggregator(sys)
	opts.Into = delta
	opts.Resume = nil

	_, res, err := core.Ingest(ctx, sys, source, opts)
	if err == nil && res.Parsed == 0 {
		err = fmt.Errorf("serve: nothing parsed from %s (%d logs failed to decode)", source, res.Failed)
		if len(res.Failures) > 0 {
			err = fmt.Errorf("%v, first %s: %w", err, res.Failures[0].Source, res.Failures[0].Err)
		}
	}
	if err != nil {
		s.gcIfEmpty(name, e)
		return nil, res, err
	}
	gen := genAfter(cur)
	if s.lake != nil {
		if err := s.lake.commit(name, sys.Name, gen, source, delta.State()); err != nil {
			s.gcIfEmpty(name, e)
			return nil, res, err
		}
	}
	base, sources := delta, []string{source}
	if cur != nil {
		base = cur.agg.Clone()
		base.Merge(delta)
		// Extending the newest snapshot's list in place is safe: ingests
		// into one dataset serialize on ingestMu, only the newest
		// generation is ever extended, and no published snapshot's slice
		// reaches the element the append writes.
		sources = append(cur.Sources, source)
	}
	next := &Snapshot{
		Name:    name,
		System:  sys.Name,
		Gen:     gen,
		Report:  base.Report(),
		Sources: sources,
		agg:     base,
	}
	e.cur.Store(next)
	if s.lake != nil {
		s.lake.maybeCompact(next)
	}
	return next, res, nil
}

func genAfter(cur *Snapshot) uint64 {
	if cur == nil {
		return 1
	}
	return cur.Gen + 1
}
