// Parallel log ingestion: the darshan-util half of the pipeline at campaign
// scale. There is one path from a campaign on disk to an
// analysis.Aggregator: Open decides what the path is and returns its
// source, and one driver loop pulls batches from the source through a
// fixed worker pool in which each worker owns a private
// analysis.Aggregator; the partials merge via Aggregator.Merge. A campaign
// being synthesized is one more source (genSource, whose items are job
// indices), so the deterministic model Run uses is this one (DESIGN.md §7).
//
// Determinism: workers pull their items from the source as they free up —
// an item's cost is heavy-tailed, so a static deal would leave workers idle
// behind one slow entry or job — and which worker folds which item is left
// to the scheduler. The rendered report is nevertheless identical at any
// worker count and on every run, because the fold is partition-invariant:
// no statistic depends on which aggregator folded what or the order the
// partials merge in (analysis.TestFoldIsPartitionInvariant,
// TestIngestDeterministicAcrossWorkerCounts), and failures are sorted by
// index.
//
// Robustness (DESIGN.md §9): ingestion treats its input as untrusted.
// Decoding runs under logfmt.DecodeLimits, undecodable logs can be
// quarantined aside with a manifest instead of silently skipped, progress
// checkpoints atomically every CheckpointEvery items (resume re-processes
// at most the batch a cancel interrupted and reproduces the uninterrupted
// report byte-for-byte), and context cancellation stops the pass at a batch
// boundary with a valid partial report.
//
// Memory: archives are streamed entry by entry — a worker walks the
// length-prefixed framing one step under the source's lock (cheap), copies
// the raw entry into a buffer it reuses, and pays the expensive
// inflate+decode in parallel with the others. At any moment the process
// holds one undecoded entry and one decoded log per worker, never the
// whole archive.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"iolayers/internal/analysis"
	"iolayers/internal/checkpoint"
	"iolayers/internal/darshan"
	"iolayers/internal/darshan/colfmt"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/iosim"
	"iolayers/internal/obsv"
	"iolayers/internal/workload"
)

// IngestOptions configures a parallel ingestion pass.
type IngestOptions struct {
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// Limits bounds what the decoder will allocate on behalf of each log;
	// zero fields take logfmt.DefaultLimits.
	Limits logfmt.DecodeLimits
	// QuarantineDir, when non-empty, receives every undecodable log —
	// moved aside when it is a file of its own, extracted when it is an
	// archive entry or columnar segment — plus an appended MANIFEST.tsv
	// line per log (see quarantine).
	QuarantineDir string
	// CheckpointPath enables checkpointing: progress is atomically
	// persisted every CheckpointEvery entries, and the file is removed when
	// the pass completes.
	CheckpointPath string
	// CheckpointEvery is the batch size in entries between checkpoints
	// (default 4096 when checkpointing is enabled).
	CheckpointEvery int
	// Resume continues a prior pass from its checkpoint.
	Resume *IngestCheckpoint
	// Metrics receives the pass's self-instrumentation: the "ingest" stage
	// span plus ingest.* counters and histograms, folded in at batch
	// boundaries from per-worker tallies. Nil disables metrics at zero cost.
	Metrics *obsv.Registry
	// Into, when non-nil, receives the pass: logs fold into this
	// caller-owned aggregator instead of a fresh one, and the returned
	// report covers everything the aggregator has ever accumulated — the
	// basis of live re-ingestion into an existing dataset. The aggregator
	// must be built for the same system, the caller must not touch it until
	// the pass returns, and Into is incompatible with Resume (a checkpoint
	// reconstructs its own aggregator).
	Into *analysis.Aggregator
}

// IngestFailure records one log that could not be parsed, or one job
// whose generation failed.
type IngestFailure struct {
	// Index is the item's position in the source's order.
	Index int
	// Source identifies the log: a file path, or "<archive> entry N" /
	// "<campaign> segment N" inside a campaign file; or "job N".
	Source string
	Err    error
}

// MaxRecordedFailures bounds the per-pass failure detail kept in an
// IngestResult; Failed always counts every failure.
const MaxRecordedFailures = 20

// IngestResult summarizes what an ingestion pass consumed.
type IngestResult struct {
	Parsed int
	Failed int
	// Quarantined counts logs moved to QuarantineDir.
	Quarantined int
	// Failures holds the first MaxRecordedFailures failures in input order.
	Failures []IngestFailure
}

// IngestFailureRecord is the serializable form of an IngestFailure.
type IngestFailureRecord struct {
	Index  int
	Source string
	Err    string
}

// IngestCheckpoint is the persisted state of a partially-complete pass —
// an ingestion, or a campaign run (Campaign.RunContext). EntriesDone is a
// strict prefix: every item with index < EntriesDone is fully accounted
// (parsed, failed, or quarantined; for a campaign, generated, sunk and
// aggregated, or failed), and none at or beyond it are. All statistics are
// exact sums, counts, or sample multisets, and Agg holds the aggregator
// state in its own binary layout (analysis.AggregatorState.MarshalBinary),
// which stores float64 bits exactly, so a resumed pass's report is
// byte-identical to an uninterrupted one at any worker count.
type IngestCheckpoint struct {
	System string
	// Mode names the kind of source the pass walked: "dir" (a list of log
	// files — a directory's, or one single log), "archive", "columnar", or
	// "campaign" (the job indices of a synthesized campaign).
	Mode string
	// Source is the path the pass was given; Ingest(Source) resumes it.
	// Empty for a campaign.
	Source string
	// Paths freezes "dir" mode's sorted input list: quarantined files
	// are gone from the directory, so resume must not re-glob.
	Paths       []string
	EntriesDone int
	Parsed      int
	Failed      int
	Quarantined int
	Failures    []IngestFailureRecord
	// Config is a campaign's full workload config: with System it rebuilds
	// the campaign (NewCampaign), so a resume needs no flags.
	Config workload.Config
	// Fault is a campaign's merged fault outcome over its completed jobs.
	Fault workload.FaultOutcome
	// ArchiveBytes and ArchiveEntries are a campaign sink's durable size
	// (RunOptions.SyncSink) at the last completed batch boundary: resume
	// truncates the archive to this offset before appending, and the jobs
	// whose logs it cuts off are the ones at or past EntriesDone.
	ArchiveBytes   int64
	ArchiveEntries int
	// Agg is the state's bytes rather than the state: gob would describe
	// the state's field types in every checkpoint, about 950 B of type
	// definitions around a layout that needs none.
	Agg []byte
	// Metrics is the deterministic slice of the pass's obsv registry, so a
	// resumed pass's stripped metrics snapshot is byte-identical to an
	// uninterrupted one. Nil when the pass carried no registry.
	Metrics *obsv.State
}

// LoadIngestCheckpoint reads a checkpoint written by a prior pass, an
// ingestion's or a campaign's; Mode says which. A checkpoint whose state
// this build cannot read is refused with the way out: restart the run.
func LoadIngestCheckpoint(path string) (*IngestCheckpoint, error) {
	var ck IngestCheckpoint
	if err := checkpoint.Load(path, &ck); err != nil {
		return nil, retiredCheckpointError(path, err)
	}
	switch {
	case ck.Mode == "" && ck.Agg != nil:
		return nil, perJobCheckpointError(path)
	case ck.Mode != "dir" && ck.Mode != "archive" && ck.Mode != "columnar" && ck.Mode != "campaign":
		return nil, fmt.Errorf("core: %s is not a checkpoint", path)
	}
	if ck.Agg != nil {
		if err := new(analysis.AggregatorState).UnmarshalBinary(ck.Agg); err != nil {
			return nil, fmt.Errorf("core: %s: %w: restart the run", path, err)
		}
	}
	return &ck, nil
}

// Campaign checkpoints of the older per-job done-set format carry
// aggregator state and no Mode; nothing reads that format now.
func perJobCheckpointError(path string) error {
	return fmt.Errorf("core: %s is a campaign checkpoint in the retired per-job format, which cannot be resumed: restart the run", path)
}

// marshaledState takes the bytes of a state that gob carried as a
// BinaryMarshaler, as checkpoints did before Agg was a byte slice.
type marshaledState []byte

func (m *marshaledState) UnmarshalBinary(b []byte) error {
	*m = append((*m)[:0], b...)
	return nil
}

// retiredCheckpointError names what a checkpoint that fails to load was,
// when Agg is in a format checkpoints had before: a gob struct, before the
// state had a binary layout, and then the state gob-wrapped as a
// BinaryMarshaler (layout version 1). Nothing reads those formats now.
func retiredCheckpointError(path string, err error) error {
	var gobStruct struct{ Agg *struct{ Logs int64 } }
	if checkpoint.Load(path, &gobStruct) == nil {
		return fmt.Errorf("core: %s holds its aggregator state in the retired gob-struct format, which this version does not read: restart the run", path)
	}
	var wrapped struct {
		Mode string
		Agg  marshaledState
	}
	if checkpoint.Load(path, &wrapped) == nil {
		if wrapped.Mode == "" {
			return perJobCheckpointError(path)
		}
		return fmt.Errorf("core: %s holds its aggregator state gob-wrapped, the retired format from before checkpoints carried the state's bytes, which this version does not read: restart the run", path)
	}
	return err
}

// ingestItem is one unit of work: a log file to open (path), a raw
// undecoded archive entry, a raw undecoded columnar segment, or a job to
// generate.
type ingestItem struct {
	index    int
	path     string
	raw      []byte
	in       string // for raw and job items, the unit: "<path> entry ", "job "
	columnar bool
	job      bool
}

// source names the item in failure reports and the quarantine manifest; it
// is built on demand so the healthy path formats nothing per item.
func (it ingestItem) source() string {
	if it.path != "" {
		return it.path
	}
	return it.in + strconv.Itoa(it.index)
}

// indexedFailure carries the failed item beside its failure, for
// quarantining.
type indexedFailure struct {
	f    IngestFailure
	item ingestItem
}

// quarantine moves undecodable logs aside and records each in a
// tab-separated manifest (source, quarantined path, error kind, detail).
// All writes happen on the coordinator goroutine, between batches.
type quarantine struct {
	dir      string
	manifest *os.File
}

func newQuarantine(dir string) (*quarantine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating quarantine dir: %w", err)
	}
	m, err := os.OpenFile(filepath.Join(dir, "MANIFEST.tsv"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: opening quarantine manifest: %w", err)
	}
	return &quarantine{dir: dir, manifest: m}, nil
}

// errKind names the failure class for the manifest: the logfmt taxonomy
// when available, "error" otherwise.
func errKind(err error) string {
	var de *logfmt.DecodeError
	if errors.As(err, &de) {
		return de.Kind.String()
	}
	return "error"
}

// add quarantines one failed item: a log file is moved (its path leaves
// the input directory), an archive entry or columnar segment is extracted
// from its raw bytes.
func (q *quarantine) add(fail indexedFailure) error {
	var dst string
	if fail.item.path != "" {
		dst = filepath.Join(q.dir, filepath.Base(fail.item.path))
		if _, err := os.Lstat(dst); err == nil {
			dst = filepath.Join(q.dir, fmt.Sprintf("%06d-%s", fail.f.Index, filepath.Base(fail.item.path)))
		}
		if err := os.Rename(fail.item.path, dst); err != nil {
			return fmt.Errorf("core: quarantining %s: %w", fail.item.path, err)
		}
	} else {
		name := fmt.Sprintf("entry-%06d.darshan", fail.f.Index)
		if fail.item.columnar {
			name = fmt.Sprintf("segment-%06d.dgcseg", fail.f.Index)
		}
		dst = filepath.Join(q.dir, name)
		if err := os.WriteFile(dst, fail.item.raw, 0o644); err != nil {
			return fmt.Errorf("core: quarantining %s: %w", fail.f.Source, err)
		}
	}
	_, err := fmt.Fprintf(q.manifest, "%s\t%s\t%s\t%s\n",
		fail.f.Source, dst, errKind(fail.f.Err), fail.f.Err)
	if err != nil {
		return fmt.Errorf("core: appending quarantine manifest: %w", err)
	}
	return nil
}

// sync flushes the manifest before a checkpoint is written, so a resumed
// pass never re-quarantines an already-manifested log.
func (q *quarantine) sync() error { return q.manifest.Sync() }

func (q *quarantine) close() {
	if q != nil {
		q.manifest.Close()
	}
}

// itemDecoder decodes row-oriented items one after another through one
// logfmt.Decoder, so a log is valid only until the next item is decoded.
type itemDecoder struct {
	dec logfmt.Decoder
	br  bytes.Reader
}

// decode decodes one row-oriented item under lim: the log file at its path,
// or the raw archive entry it carries. A file's errors are wrapped as
// logfmt.ReadFileWithLimits wraps them, since they reach IngestFailure and
// the quarantine manifest.
func (d *itemDecoder) decode(lim logfmt.DecodeLimits, item ingestItem) (*darshan.Log, error) {
	if item.path == "" {
		d.br.Reset(item.raw)
		return d.dec.Decode(&d.br, lim)
	}
	f, err := os.Open(item.path)
	if err != nil {
		return nil, fmt.Errorf("logfmt: opening %s: %w", item.path, err)
	}
	defer f.Close()
	log, err := d.dec.Decode(f, lim)
	if err != nil {
		return nil, fmt.Errorf("logfmt: parsing %s: %w", item.path, err)
	}
	return log, nil
}

// jobWorker is a worker's campaign half: the source its jobs come from
// (generator and sink), the fault outcome its jobs merged, and the first
// sink failure, after which it runs nothing more.
type jobWorker struct {
	src     *genSource
	fault   workload.FaultOutcome
	sinkErr error
}

// consumeItem parses one item under lim — or, for a job, generates it and
// hands each log to the sink — and folds it into agg. Ingestion consumes
// external files, so invariant panics from aggregation —
// iosim.System.LayerFor on a path outside the system's mounts, as happens
// when a log is analyzed against the wrong -system — are demoted to per-log
// errors rather than crashing the pass. AddLog and FoldBatch route every
// path before they fold anything, so a log or segment rejected this way
// leaves agg exactly as it was.
// It returns how many logs the item contributed (1 for a log, the segment's
// log count for a columnar segment, the job's log count) plus the columns
// the segment's stats block let the decoder skip. A job whose generation
// dies is a counted failure; a sink failure is not an item's failure but
// the pass's, so it lands in jw.sinkErr instead.
func consumeItem(d *itemDecoder, jw *jobWorker, agg *analysis.Aggregator, lim logfmt.DecodeLimits, item ingestItem) (logs int, colsPruned int, err error) {
	defer func() {
		if r := recover(); r != nil {
			logs, colsPruned = 0, 0
			err = fmt.Errorf("core: analyzing log: %v", r)
		}
	}()
	if item.job {
		if jw.sinkErr != nil {
			return 0, 0, nil // the pass is failing: run nothing more
		}
		logs, fo, err := jw.src.gen.GenerateJobSafe(item.index)
		if err != nil {
			return 0, 0, err
		}
		jw.fault.Merge(&fo)
		for li, log := range logs {
			if jw.src.sink != nil {
				if err := jw.src.sink(item.index, li, log); err != nil {
					jw.sinkErr = fmt.Errorf("core: sink failed on job %d log %d: %w", item.index, li, err)
					return 0, 0, nil
				}
			}
			agg.AddLog(log)
		}
		return len(logs), 0, nil
	}
	if item.columnar {
		batch, err := colfmt.DecodeSegment(item.raw, colfmt.ProjectAll, lim)
		if err != nil {
			return 0, 0, err
		}
		if err := agg.FoldBatch(batch); err != nil {
			return 0, 0, err
		}
		return batch.NumLogs, batch.ColumnsPruned, nil
	}
	log, err := d.decode(lim, item)
	if err != nil {
		return 0, 0, err
	}
	agg.AddLog(log)
	return 1, 0, nil
}

// numErrClasses is the metric fan-out for decode failures: the five
// logfmt.ErrorKind values plus one "other" class for non-decode errors
// (I/O failures, aggregation panics).
const numErrClasses = int(logfmt.KindBadVersion) + 2

// errClassName names a decode-error metric class.
func errClassName(k int) string {
	if k <= int(logfmt.KindBadVersion) {
		return logfmt.ErrorKind(k).String()
	}
	return "other"
}

// batchResult carries one batch's outcome back to the coordinator.
type batchResult struct {
	aggs      []*analysis.Aggregator
	jobs      []jobWorker // a campaign's, one per worker beside aggs; nil otherwise
	sinkErr   error       // the first jobs[i].sinkErr, in worker order
	parsed    int
	failures  []indexedFailure // all of the batch's failures, index-sorted
	failed    int
	count     int // items pulled
	cancelled bool
	streamErr error // framing error from the item source
	// Metric tallies, merged from per-worker shards after the pool drains.
	errClasses [numErrClasses]int64
	rawBytes   int64
	rawHist    [obsv.NumBuckets]uint64
	colsPruned int64
}

// ingestCoordinator accumulates a pass's running state across batches.
type ingestCoordinator struct {
	sys  *iosim.System
	opts IngestOptions
	lim  logfmt.DecodeLimits

	src  source
	path string // what the caller asked for; the checkpoint's Source

	// A campaign pass has campaign == src. It keeps the merged fault
	// outcome, and the sink's durable size taken through syncSink before
	// the first batch and at each completed boundary.
	campaign       *genSource
	syncSink       func() (bytes int64, entries int, err error)
	fault          workload.FaultOutcome
	archiveBytes   int64
	archiveEntries int

	total       *analysis.Aggregator
	parsed      int
	failed      int
	quarantined int
	failures    []IngestFailure
	entriesDone int
	quar        *quarantine
	span        *obsv.Span // stage span; nil when metrics are off
}

// begin validates the options against the opened source, restores a
// resumed pass's state (positioning the source past its completed prefix),
// and opens the quarantine.
func (ic *ingestCoordinator) begin() error {
	sys, opts := ic.sys, ic.opts
	ic.total = analysis.NewAggregator(sys)
	if ic.campaign != nil {
		ic.total.LargeJobProcs = ic.campaign.gen.Profile().LargeJobProcs
	}
	if opts.Into != nil {
		if opts.Resume != nil {
			return fmt.Errorf("core: IngestOptions.Into cannot be combined with Resume")
		}
		if opts.Into.SystemName() != sys.Name {
			return fmt.Errorf("core: Into aggregator is for system %q, pass is %q",
				opts.Into.SystemName(), sys.Name)
		}
		ic.total = opts.Into
	}
	if ck := opts.Resume; ck != nil {
		if ck.System != sys.Name {
			return fmt.Errorf("core: checkpoint is for system %q, pass is %q", ck.System, sys.Name)
		}
		if ck.Mode != ic.src.mode() {
			return fmt.Errorf("core: checkpoint is a %q pass, %s is a %q source", ck.Mode, ic.path, ic.src.mode())
		}
		if err := ic.src.resume(ck); err != nil {
			return err
		}
		ic.entriesDone = ck.EntriesDone
		ic.parsed = ck.Parsed
		ic.failed = ck.Failed
		ic.quarantined = ck.Quarantined
		for _, f := range ck.Failures {
			ic.failures = append(ic.failures, IngestFailure{Index: f.Index, Source: f.Source, Err: errors.New(f.Err)})
		}
		ic.fault = ck.Fault
		ic.archiveBytes, ic.archiveEntries = ck.ArchiveBytes, ck.ArchiveEntries
		if ck.Agg != nil {
			st := new(analysis.AggregatorState)
			if err := st.UnmarshalBinary(ck.Agg); err != nil {
				return fmt.Errorf("core: checkpoint state: %w", err)
			}
			var err error
			if ic.total, err = analysis.NewAggregatorFromState(sys, st); err != nil {
				return err
			}
		}
		opts.Metrics.RestoreState(ck.Metrics)
	}
	if opts.QuarantineDir != "" {
		var err error
		if ic.quar, err = newQuarantine(opts.QuarantineDir); err != nil {
			return err
		}
	}
	return nil
}

// close releases what the pass holds open: the source's file and the
// quarantine manifest.
func (ic *ingestCoordinator) close() {
	ic.src.close()
	ic.quar.close()
}

func (ic *ingestCoordinator) workers() int {
	if ic.opts.Workers > 0 {
		return ic.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (ic *ingestCoordinator) batchSize() int {
	if ic.opts.CheckpointPath == "" {
		return 0 // unbatched: single pass over everything
	}
	if ic.opts.CheckpointEvery > 0 {
		return ic.opts.CheckpointEvery
	}
	return ic.src.batch()
}

// sync flushes a checkpointed campaign's sink and records its durable
// size. It runs before the first batch and at completed boundaries only —
// never on a cancel, when the sink also holds logs of jobs that will
// regenerate — so a checkpoint's archive offset always matches its
// EntriesDone.
func (ic *ingestCoordinator) sync() error {
	if ic.syncSink == nil || ic.opts.CheckpointPath == "" {
		return nil
	}
	b, e, err := ic.syncSink()
	if err != nil {
		return fmt.Errorf("core: syncing sink for checkpoint: %w", err)
	}
	ic.archiveBytes, ic.archiveEntries = b, e
	return nil
}

// writeCheckpoint persists the coordinator's current (batch-boundary)
// state. The quarantine manifest is synced first so the on-disk checkpoint
// never claims more progress than the manifest records.
func (ic *ingestCoordinator) writeCheckpoint() error {
	if ic.opts.CheckpointPath == "" {
		return nil
	}
	if ic.quar != nil {
		if err := ic.quar.sync(); err != nil {
			return fmt.Errorf("core: syncing quarantine manifest: %w", err)
		}
	}
	agg, err := ic.total.State().MarshalBinary()
	if err != nil {
		return fmt.Errorf("core: encoding checkpoint state: %w", err)
	}
	ck := &IngestCheckpoint{
		System: ic.sys.Name, Mode: ic.src.mode(), Source: ic.path,
		Paths: ic.src.listing(), EntriesDone: ic.entriesDone,
		Parsed: ic.parsed, Failed: ic.failed, Quarantined: ic.quarantined,
		Fault: ic.fault, ArchiveBytes: ic.archiveBytes, ArchiveEntries: ic.archiveEntries,
		Agg:     agg,
		Metrics: ic.opts.Metrics.State(),
	}
	if ic.campaign != nil {
		ck.Config = ic.campaign.cfg
	}
	for _, f := range ic.failures {
		ck.Failures = append(ck.Failures, IngestFailureRecord{Index: f.Index, Source: f.Source, Err: f.Err.Error()})
	}
	return checkpoint.Save(ic.opts.CheckpointPath, ck)
}

// runBatch runs up to max items (0 = unlimited) from the source through a
// fresh worker pool. Each worker pulls its own next item, so a slow item
// delays only the worker folding it.
func (ic *ingestCoordinator) runBatch(ctx context.Context, max int) batchResult {
	w := ic.workers()
	if max > 0 && w > max {
		w = max
	}
	keepAll := ic.quar != nil
	res := batchResult{aggs: make([]*analysis.Aggregator, w)}
	parsedW := make([]int, w)
	failedW := make([]int, w)
	failsW := make([][]indexedFailure, w)
	// Per-worker metric shards: plain memory, no atomics, no sharing —
	// merged into res after the pool drains (DESIGN.md §10).
	type workerMetrics struct {
		errClasses [numErrClasses]int64
		rawBytes   int64
		rawHist    [obsv.NumBuckets]uint64
		colsPruned int64
	}
	var metricsW []workerMetrics
	if ic.opts.Metrics != nil {
		metricsW = make([]workerMetrics, w)
	}
	if ic.campaign != nil {
		res.jobs = make([]jobWorker, w)
	}
	// pull hands a worker the source's next item under mu, which guards the
	// source, res.count and res.streamErr. The source's raw bytes are its
	// scratch, so they are copied into the worker's own buf; that copy stays
	// good until the worker pulls again, by when it has folded the item.
	// ok=false stops the worker: the batch is full, the pass is cancelled,
	// or the stream has ended or broken.
	var mu sync.Mutex
	pull := func(buf *[]byte) (item ingestItem, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if ctx.Err() != nil || res.streamErr != nil || (max > 0 && res.count >= max) {
			return item, false
		}
		item, ok, res.streamErr = ic.src.next()
		if !ok {
			return item, false
		}
		if item.raw != nil {
			*buf = append((*buf)[:0], item.raw...)
			item.raw = *buf
		}
		res.count++
		return item, true
	}
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		res.aggs[wi] = analysis.NewAggregator(ic.sys)
		res.aggs[wi].LargeJobProcs = ic.total.LargeJobProcs
		var jw *jobWorker
		if res.jobs != nil {
			jw = &res.jobs[wi]
			jw.src = ic.campaign
		}
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var dec itemDecoder
			var buf []byte
			for {
				item, ok := pull(&buf)
				if !ok {
					return
				}
				if metricsW != nil && item.raw != nil {
					n := int64(len(item.raw))
					metricsW[wi].rawBytes += n
					metricsW[wi].rawHist[obsv.BucketOf(n)]++
				}
				logs, pruned, err := consumeItem(&dec, jw, res.aggs[wi], ic.lim, item)
				if err != nil {
					failedW[wi]++
					if metricsW != nil {
						class := numErrClasses - 1
						if k, ok := logfmt.KindOf(err); ok {
							class = int(k)
						}
						metricsW[wi].errClasses[class]++
					}
					if keepAll || len(failsW[wi]) < MaxRecordedFailures {
						item.raw = bytes.Clone(item.raw) // buf is overwritten by the next pull
						failsW[wi] = append(failsW[wi], indexedFailure{
							f:    IngestFailure{Index: item.index, Source: item.source(), Err: err},
							item: item,
						})
					}
					continue
				}
				parsedW[wi] += logs
				if metricsW != nil {
					metricsW[wi].colsPruned += int64(pruned)
				}
			}
		}(wi)
	}

	wg.Wait()
	res.cancelled = ctx.Err() != nil

	for wi := 0; wi < w; wi++ {
		res.parsed += parsedW[wi]
		res.failed += failedW[wi]
		res.failures = append(res.failures, failsW[wi]...)
		if res.jobs != nil && res.sinkErr == nil {
			res.sinkErr = res.jobs[wi].sinkErr
		}
		if metricsW != nil {
			for k, n := range metricsW[wi].errClasses {
				res.errClasses[k] += n
			}
			res.rawBytes += metricsW[wi].rawBytes
			for i, n := range metricsW[wi].rawHist {
				res.rawHist[i] += n
			}
			res.colsPruned += metricsW[wi].colsPruned
		}
	}
	sort.Slice(res.failures, func(i, j int) bool { return res.failures[i].f.Index < res.failures[j].f.Index })
	return res
}

// absorb merges what a batch analyzed — aggregates and, for a campaign,
// fault outcomes, both in worker order; counts; recorded failures — into
// the running state.
func (ic *ingestCoordinator) absorb(res *batchResult) {
	for wi, a := range res.aggs {
		ic.total.Merge(a)
		if res.jobs != nil {
			ic.fault.Merge(&res.jobs[wi].fault)
		}
	}
	ic.parsed += res.parsed
	ic.failed += res.failed
	for _, fail := range res.failures {
		if len(ic.failures) < MaxRecordedFailures {
			ic.failures = append(ic.failures, fail.f)
		}
	}
}

// fold accounts a completed (non-cancelled) batch as done: metrics, what it
// analyzed (absorb), quarantine actions, and the prefix position. A
// cancelled batch is absorbed but never folded (see run): the checkpoint
// keeps pre-batch metrics, so resume reproduces them exactly.
func (ic *ingestCoordinator) fold(res *batchResult) error {
	if m := ic.opts.Metrics; m != nil && ic.campaign != nil {
		// A campaign counts jobs, their logs and retries, and the bytes its
		// jobs moved; it decodes nothing, so it has no ingest.* names.
		jobs := int64(res.count - res.failed)
		var retried, attempts int64
		var moved float64
		for wi, a := range res.aggs {
			moved += a.TotalBytes()
			retried += res.jobs[wi].fault.OpsRetried
			attempts += res.jobs[wi].fault.RetryAttempts
		}
		m.Counter("run.jobs_done").Add(jobs)
		m.Counter("run.jobs_failed").Add(int64(res.failed))
		m.Counter("run.logs_generated").Add(int64(res.parsed))
		m.Counter("run.ops_retried").Add(retried)
		m.Counter("run.retry_attempts").Add(attempts)
		ic.span.AddOps(jobs)
		ic.span.AddBytes(int64(moved))
	} else if m != nil {
		m.Counter("ingest.logs_parsed").Add(int64(res.parsed))
		m.Counter("ingest.logs_failed").Add(int64(res.failed))
		for k, n := range res.errClasses {
			if n > 0 {
				m.Counter("ingest.decode_errors." + errClassName(k)).Add(n)
			}
		}
		if res.rawBytes > 0 {
			m.Counter("ingest.bytes_raw").Add(res.rawBytes)
			h := m.Histogram("ingest.entry_bytes")
			for i, n := range res.rawHist {
				if n > 0 {
					h.AddBucket(i, n)
				}
			}
			h.AddSum(res.rawBytes)
		}
		ic.span.AddOps(int64(res.count))
		ic.span.AddBytes(res.rawBytes)
		logfmt.PublishMetrics(m) // refresh the (volatile) codec-pool gauges
		if ic.src.mode() == "columnar" {
			m.Counter("colfmt.columns_pruned").Add(res.colsPruned)
			// Registered even when zero so /metrics always carries the
			// pruning counters for a columnar dataset.
			m.Counter("colfmt.segments_pruned").Add(0)
			colfmt.PublishMetrics(m)
		}
	}
	ic.absorb(res)
	if ic.quar != nil {
		for _, fail := range res.failures {
			if err := ic.quar.add(fail); err != nil {
				return err
			}
			ic.quarantined++
		}
	}
	ic.entriesDone += res.count
	return nil
}

// result renders the final (or partial) report and result.
func (ic *ingestCoordinator) result() (*analysis.Report, IngestResult) {
	return ic.total.Report(), IngestResult{
		Parsed: ic.parsed, Failed: ic.failed,
		Quarantined: ic.quarantined,
		Failures:    ic.failures,
	}
}

// run is the one driver loop: batch → sink failed? → cancelled? → fold →
// framing damage? → checkpoint, until the source is exhausted.
func (ic *ingestCoordinator) run(ctx context.Context) (*analysis.Report, IngestResult, error) {
	// A cancel in the first batch checkpoints the sink's size before it:
	// for an archive, its header and no entries.
	if err := ic.sync(); err != nil {
		return nil, IngestResult{}, err
	}
	for ic.src.remaining() != 0 {
		// A source that knows its length caps the batch, and through it the
		// pool: a one-log ingest runs one worker, not GOMAXPROCS of them.
		max := ic.batchSize()
		if rem := ic.src.remaining(); rem > 0 && (max <= 0 || max > rem) {
			max = rem
		}
		res := ic.runBatch(ctx, max)
		if res.sinkErr != nil {
			// A failed sink poisons what the campaign persisted: abort
			// without checkpointing over it.
			return nil, IngestResult{}, res.sinkErr
		}
		if res.cancelled {
			// The checkpoint keeps the pre-batch state (the partial batch
			// re-processes on resume — nothing from it is quarantined or
			// counted as done), while the returned report absorbs the
			// partial batch so the shutdown still flushes everything that
			// was actually analyzed.
			if err := ic.writeCheckpoint(); err != nil {
				return nil, IngestResult{}, errors.Join(ctx.Err(), err)
			}
			ic.absorb(&res)
			rep, ir := ic.result()
			return rep, ir, ctx.Err()
		}
		if err := ic.fold(&res); err != nil {
			return nil, IngestResult{}, err
		}
		if res.streamErr != nil {
			// Framing damage: the processed prefix is complete and
			// checkpointable, but nothing beyond it is reachable.
			if err := ic.writeCheckpoint(); err != nil {
				return nil, IngestResult{}, errors.Join(res.streamErr, err)
			}
			rep, ir := ic.result()
			return rep, ir, res.streamErr
		}
		if ic.src.remaining() != 0 {
			if err := ic.sync(); err != nil {
				return nil, IngestResult{}, err
			}
			if err := ic.writeCheckpoint(); err != nil {
				return nil, IngestResult{}, err
			}
		}
	}
	if ic.opts.CheckpointPath != "" {
		os.Remove(ic.opts.CheckpointPath) // nothing left to resume; best effort
	}
	rep, ir := ic.result()
	return rep, ir, nil
}

// openKind is Open for the entry points that insist on one kind of source:
// want names the only mode accepted, "" accepts whatever Open finds.
func openKind(path string, lim logfmt.DecodeLimits, want string) (source, error) {
	src, err := Open(path, lim)
	if err != nil {
		return nil, err
	}
	if want != "" && src.mode() != want {
		src.close()
		return nil, fmt.Errorf("core: %s is a %q source, not %q", path, src.mode(), want)
	}
	return src, nil
}

// ingest opens path (as openKind does for want), runs the driver over it,
// and on every exit closes what the pass opened: source and manifest.
func ingest(ctx context.Context, sys *iosim.System, path string, opts IngestOptions, want string) (*analysis.Report, IngestResult, error) {
	if sys == nil {
		return nil, IngestResult{}, fmt.Errorf("core: nil system")
	}
	src, err := openKind(path, opts.Limits, want)
	if err != nil {
		if k, ok := logfmt.KindOf(err); ok {
			opts.Metrics.Counter("ingest.decode_errors." + k.String()).Add(1)
		}
		return nil, IngestResult{}, err
	}
	spanName := "ingest"
	if src.mode() == "columnar" {
		spanName = "fold" // the columnar pass is a pure batch fold, no inflate/decode of logs
	}
	ic := &ingestCoordinator{
		sys: sys, opts: opts, lim: opts.Limits, src: src, path: path,
		span: opts.Metrics.Span(spanName),
	}
	return ic.drive(ctx)
}

// drive runs the pass: restore what a resume carries, run the driver loop
// under the stage span, and on every exit close what the pass holds open.
func (ic *ingestCoordinator) drive(ctx context.Context) (*analysis.Report, IngestResult, error) {
	defer ic.close()
	if err := ic.begin(); err != nil {
		return nil, IngestResult{}, err
	}
	timer := ic.span.Begin()
	defer timer.End()
	ic.span.SetWorkers(ic.workers())
	return ic.run(ctx)
}

// Ingest folds the campaign at path — a directory of *.darshan logs, a
// single .darshan log, a .dgar archive or a .dgc columnar campaign, as Open
// finds it — through the worker pool and returns the aggregate report.
//
// Logs (or archive entries, or columnar segments) that fail to decode are
// counted, reported in the result, and (with QuarantineDir) moved or
// extracted aside — not fatal; ingestion continues with the next one, since
// framing is independent of contents. Parsed counts logs, not segments; a
// segment that fails to decode or fold counts as one failure. A source with
// nothing in it yields a zero result and no error; callers decide whether
// that is fatal. A framing-level error — truncation, a corrupt entry
// length — ends the stream: everything ingested up to that point is still
// reported, alongside the non-nil error. Cancellation returns the partial
// report alongside ctx's error; with CheckpointPath set the pass is
// resumable, by calling Ingest again on the checkpoint's Source with the
// checkpoint as opts.Resume.
//
// Determinism is the same for every kind: workers pull items as they free
// up, and since the fold is partition-invariant the same campaign offered
// as a directory, an archive or a columnar file renders the same bytes at
// any worker count.
func Ingest(ctx context.Context, sys *iosim.System, path string, opts IngestOptions) (*analysis.Report, IngestResult, error) {
	return ingest(ctx, sys, path, opts, "")
}

// IngestArchive is Ingest for a path that must be a .dgar archive: any
// other kind of source is an error.
func IngestArchive(ctx context.Context, sys *iosim.System, path string, opts IngestOptions) (*analysis.Report, IngestResult, error) {
	return ingest(ctx, sys, path, opts, "archive")
}

// IngestColumnar is Ingest for a path that must be a .dgc columnar
// campaign: any other kind of source is an error.
func IngestColumnar(ctx context.Context, sys *iosim.System, path string, opts IngestOptions) (*analysis.Report, IngestResult, error) {
	return ingest(ctx, sys, path, opts, "columnar")
}
