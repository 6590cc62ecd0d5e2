// Package analysis is the darshan-util-equivalent aggregation pipeline: it
// consumes Darshan-format logs and computes every statistic the paper's
// evaluation reports — campaign summaries (Table 2), per-layer file counts
// and volumes (Table 3), >1 TB tail files (Table 4), per-job layer
// exclusivity (Table 5), per-layer interface usage (Table 6), per-file
// transfer-size CDFs (Figures 3 and 9), per-process request-size CDFs
// (Figures 4 and 5), file classification (Figures 6 and 8), science-domain
// attribution (Figures 7 and 10), and shared-file performance distributions
// (Figures 11 and 12).
//
// An Aggregator accumulates logs one at a time and is mergeable, so
// campaigns can be analyzed by parallel workers that each own a private
// Aggregator; merging preserves exact counts. Transfer accounting follows
// the paper's §3.1 convention: a file touched through MPI-IO or POSIX is
// accounted at the POSIX level (MPI-IO issues POSIX calls underneath);
// a file managed only by STDIO is accounted at the STDIO level.
package analysis

import (
	"fmt"
	"time"

	"iolayers/internal/darshan"
	"iolayers/internal/iosim"
	"iolayers/internal/stats"
	"iolayers/internal/units"
)

// Direction distinguishes read and write statistics.
type Direction int

// Directions.
const (
	Read Direction = iota
	Write
	numDirections
)

// String names the direction.
func (d Direction) String() string {
	if d == Read {
		return "read"
	}
	return "write"
}

// layerIndex maps a LayerKind to a dense array index.
func layerIndex(k iosim.LayerKind) int {
	if k == iosim.ParallelFS {
		return 0
	}
	return 1
}

// Class is a file's read/write classification (§3.2.2).
type Class int

// File classes, in the order the paper's figures list them.
const (
	ReadOnly Class = iota
	ReadWrite
	WriteOnly
	numClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ReadOnly:
		return "read-only"
	case ReadWrite:
		return "read-write"
	case WriteOnly:
		return "write-only"
	default:
		return "class(?)"
	}
}

// LayerStats accumulates the per-layer statistics behind Tables 3, 4, and 6
// and Figures 3, 4, 5, 6, 8, and 9.
type LayerStats struct {
	// Files is the number of files accounted on this layer (POSIX-preferred
	// accounting; an MPI-IO file counts once).
	Files int64
	// Bytes[d] is the total transferred volume per direction.
	Bytes [numDirections]float64
	// HugeFiles[d] counts files whose per-direction transfer exceeds 1 TB
	// (Table 4).
	HugeFiles [numDirections]int64
	// InterfaceFiles counts files per managing interface (Table 6): a file
	// with MPI-IO records counts as MPI-IO; otherwise POSIX or STDIO.
	InterfaceFiles map[darshan.ModuleID]int64
	// TransferHist[d] bins files by per-direction transfer size (Figure 3).
	TransferHist [numDirections]*stats.Histogram
	// InterfaceTransferHist[m][d] is the per-interface variant (Figure 9).
	InterfaceTransferHist map[darshan.ModuleID]*[numDirections]*stats.Histogram
	// RequestHist[d] sums the POSIX access-size histograms (Figure 4).
	RequestHist [numDirections]*stats.Histogram
	// LargeJobRequestHist[d] is RequestHist restricted to logs from jobs
	// with more than LargeJobProcs processes (Figure 5).
	LargeJobRequestHist [numDirections]*stats.Histogram
	// ClassFiles[c] classifies POSIX+STDIO files (Figure 6).
	ClassFiles [numClasses]int64
	// StdioClassFiles[c] classifies STDIO-only files (Figure 8).
	StdioClassFiles [numClasses]int64
	// Perf[m][d][bin] collects shared-file delivered bandwidth in MB/s for
	// interface m (POSIX or STDIO), direction d, per transfer-size bin
	// (Figures 11 and 12).
	Perf map[darshan.ModuleID]*[numDirections][units.NumTransferBins][]float64

	// IOTime[d] sums per-file read/write busy time in seconds — the
	// campaign's aggregate I/O cost, used by the what-if comparisons.
	IOTime [numDirections]float64

	// StdioXRequestHist[d] sums the extended-STDIO access-size histograms —
	// the process-level view of STDIO the paper's Recommendation 4 asks
	// for. Empty unless logs were produced with the STDIOX module enabled.
	StdioXRequestHist [numDirections]*stats.Histogram
	// StdioXRewriteBytes / StdioXUniqueBytes split STDIO write volume into
	// dynamic (rewritten) and static (written-once) data, the quantities
	// governing SSD write amplification on the in-system layers.
	StdioXRewriteBytes float64
	StdioXUniqueBytes  float64
}

func newLayerStats() *LayerStats {
	ls := &LayerStats{
		InterfaceFiles:        map[darshan.ModuleID]int64{},
		InterfaceTransferHist: map[darshan.ModuleID]*[numDirections]*stats.Histogram{},
		Perf:                  map[darshan.ModuleID]*[numDirections][units.NumTransferBins][]float64{},
	}
	for d := 0; d < int(numDirections); d++ {
		ls.TransferHist[d] = stats.NewHistogram(units.NumTransferBins)
		ls.RequestHist[d] = stats.NewHistogram(units.NumRequestBins)
		ls.LargeJobRequestHist[d] = stats.NewHistogram(units.NumRequestBins)
		ls.StdioXRequestHist[d] = stats.NewHistogram(units.NumRequestBins)
	}
	return ls
}

func (ls *LayerStats) interfaceHist(m darshan.ModuleID) *[numDirections]*stats.Histogram {
	h, ok := ls.InterfaceTransferHist[m]
	if !ok {
		h = &[numDirections]*stats.Histogram{}
		for d := 0; d < int(numDirections); d++ {
			h[d] = stats.NewHistogram(units.NumTransferBins)
		}
		ls.InterfaceTransferHist[m] = h
	}
	return h
}

func (ls *LayerStats) perfCell(m darshan.ModuleID) *[numDirections][units.NumTransferBins][]float64 {
	p, ok := ls.Perf[m]
	if !ok {
		p = &[numDirections][units.NumTransferBins][]float64{}
		ls.Perf[m] = p
	}
	return p
}

func (ls *LayerStats) merge(other *LayerStats) {
	ls.Files += other.Files
	for d := 0; d < int(numDirections); d++ {
		ls.Bytes[d] += other.Bytes[d]
		ls.HugeFiles[d] += other.HugeFiles[d]
		ls.TransferHist[d].Merge(other.TransferHist[d])
		ls.RequestHist[d].Merge(other.RequestHist[d])
		ls.LargeJobRequestHist[d].Merge(other.LargeJobRequestHist[d])
	}
	for m, n := range other.InterfaceFiles {
		ls.InterfaceFiles[m] += n
	}
	for m, oh := range other.InterfaceTransferHist {
		h := ls.interfaceHist(m)
		for d := 0; d < int(numDirections); d++ {
			h[d].Merge(oh[d])
		}
	}
	for c := 0; c < int(numClasses); c++ {
		ls.ClassFiles[c] += other.ClassFiles[c]
		ls.StdioClassFiles[c] += other.StdioClassFiles[c]
	}
	for d := 0; d < int(numDirections); d++ {
		ls.IOTime[d] += other.IOTime[d]
		ls.StdioXRequestHist[d].Merge(other.StdioXRequestHist[d])
	}
	ls.StdioXRewriteBytes += other.StdioXRewriteBytes
	ls.StdioXUniqueBytes += other.StdioXUniqueBytes
	for m, op := range other.Perf {
		p := ls.perfCell(m)
		for d := 0; d < int(numDirections); d++ {
			for b := 0; b < units.NumTransferBins; b++ {
				p[d][b] = append(p[d][b], op[d][b]...)
			}
		}
	}
}

// DomainStats accumulates per-science-domain volumes (Figures 7 and 10).
type DomainStats struct {
	// InSystemBytes[d] is the domain's in-system-layer volume (Figure 7).
	InSystemBytes [numDirections]float64
	// StdioBytes[d] is the domain's STDIO volume on any layer (Figure 10).
	StdioBytes [numDirections]float64
}

// jobView tracks everything needed per job for Tables 2 and 5 and §3.3.2.
type jobView struct {
	layers    [2]bool
	usedStdio bool
	domain    string
}

// Aggregator accumulates campaign statistics from logs. Not safe for
// concurrent use; give each worker its own Aggregator and Merge at the end.
type Aggregator struct {
	sys *iosim.System
	// LargeJobProcs is the process-count threshold above which a log's
	// requests feed the large-job histograms (the paper uses 1024).
	LargeJobProcs int

	logs      int64
	nodeHours float64
	jobs      map[uint64]*jobView
	tuning    map[uint64]*userTuning
	// monthly[m] holds per-calendar-month log counts and transferred bytes
	// — the "year in the life" seasonality view ([11], [19]).
	monthlyLogs  [12]int64
	monthlyBytes [12]float64
	// userBytes/userFiles accumulate per-user volumes and file counts — the
	// user-behavior view of Lim et al. [9].
	userBytes map[uint64]float64
	userFiles map[uint64]int64
	layers    [2]*LayerStats
	domains   map[string]*DomainStats
	// domainJobs counts jobs with/without a domain attribution, giving the
	// join coverage of §3.3.2.
	domainCovered, domainUncovered map[uint64]bool

	// Per-AddLog scratch, reused across calls so grouping and routing
	// allocate nothing steady-state. Valid because Aggregator is
	// single-goroutine by contract.
	grouper darshan.Grouper
	kinds   []iosim.LayerKind
}

// NewAggregator builds an aggregator for logs produced on sys.
func NewAggregator(sys *iosim.System) *Aggregator {
	if sys == nil {
		panic("analysis: nil system")
	}
	return &Aggregator{
		sys:             sys,
		LargeJobProcs:   1024,
		jobs:            map[uint64]*jobView{},
		tuning:          map[uint64]*userTuning{},
		userBytes:       map[uint64]float64{},
		userFiles:       map[uint64]int64{},
		layers:          [2]*LayerStats{newLayerStats(), newLayerStats()},
		domains:         map[string]*DomainStats{},
		domainCovered:   map[uint64]bool{},
		domainUncovered: map[uint64]bool{},
	}
}

// TotalBytes returns the transferred volume folded in so far, summed over
// both layers and both directions. Exact while totals stay below 2^53 (the
// per-layer tallies are integer-valued float64 sums).
func (a *Aggregator) TotalBytes() float64 {
	var t float64
	for _, ls := range a.layers {
		for d := range ls.Bytes {
			t += ls.Bytes[d]
		}
	}
	return t
}

// logContext carries the per-log state the row folds consume; beginLog
// produces it. The row folds — foldFile, foldPosixSizes, foldStdioXSizes —
// are everything a log's rows contribute and the only code that contributes
// it: AddLog hands them rows straight from the grouper, FoldBatch rows read
// back from columns, so reports rendered either way are byte-identical.
type logContext struct {
	jv     *jobView
	ds     *DomainStats
	month  int
	large  bool
	userID uint64
}

// beginLog folds one log's job-level statistics — log count, node-hours,
// seasonality, job view, domain attribution — and returns the context the
// per-file accounting needs.
func (a *Aggregator) beginLog(job darshan.JobHeader, domain string) logContext {
	a.logs++
	a.nodeHours += job.NodeHours(a.sys.ProcsPerNode)
	month := int(time.Unix(job.StartTime, 0).UTC().Month()) - 1
	a.monthlyLogs[month]++

	jv, ok := a.jobs[job.JobID]
	if !ok {
		jv = &jobView{}
		a.jobs[job.JobID] = jv
	}

	if domain != "" {
		a.domainCovered[job.JobID] = true
		if jv.domain == "" {
			jv.domain = domain
		}
	} else {
		a.domainUncovered[job.JobID] = true
	}
	var ds *DomainStats
	if domain != "" {
		ds, ok = a.domains[domain]
		if !ok {
			ds = &DomainStats{}
			a.domains[domain] = ds
		}
	}

	return logContext{
		jv:     jv,
		ds:     ds,
		month:  month,
		large:  job.NProcs > a.LargeJobProcs,
		userID: job.UserID,
	}
}

// foldFile folds one accounted file into the per-layer, per-job, per-month,
// and per-user statistics.
func (a *Aggregator) foldFile(lc logContext, f *darshan.FileRow, kind iosim.LayerKind) {
	li := layerIndex(kind)
	ls := a.layers[li]
	lc.jv.layers[li] = true
	if f.Stdio.Present {
		lc.jv.usedStdio = true
	}

	before := ls.Bytes[Read] + ls.Bytes[Write]
	a.accountFile(ls, lc.ds, f, kind)
	moved := ls.Bytes[Read] + ls.Bytes[Write] - before
	a.monthlyBytes[lc.month] += moved
	a.userBytes[lc.userID] += moved
	a.userFiles[lc.userID]++
}

// foldPosixSizes adds one path's POSIX access-size bins to its layer's
// request-size histograms (Figures 4 and 5).
func (a *Aggregator) foldPosixSizes(lc logContext, s *darshan.SizeRow, kind iosim.LayerKind) {
	ls := a.layers[layerIndex(kind)]
	for b := 0; b < units.NumRequestBins; b++ {
		reads, writes := uint64(s.Bins[b]), uint64(s.Bins[units.NumRequestBins+b])
		ls.RequestHist[Read].Add(b, reads)
		ls.RequestHist[Write].Add(b, writes)
		if lc.large {
			ls.LargeJobRequestHist[Read].Add(b, reads)
			ls.LargeJobRequestHist[Write].Add(b, writes)
		}
	}
}

// foldStdioXSizes adds one path's extended-STDIO row to its layer's
// Recommendation 4 statistics.
func (a *Aggregator) foldStdioXSizes(s *darshan.SizeRow, kind iosim.LayerKind) {
	ls := a.layers[layerIndex(kind)]
	for b := 0; b < units.NumRequestBins; b++ {
		ls.StdioXRequestHist[Read].Add(b, uint64(s.Bins[b]))
		ls.StdioXRequestHist[Write].Add(b, uint64(s.Bins[units.NumRequestBins+b]))
	}
	ls.StdioXRewriteBytes += float64(s.Rewrite)
	ls.StdioXUniqueBytes += float64(s.Unique)
}

// AddLog folds one log into the aggregate. Every row is routed before the
// first is folded: iosim.System.LayerFor panics on a path outside the
// system's mounts, and a log rejected that way must contribute nothing.
func (a *Aggregator) AddLog(log *darshan.Log) {
	if log == nil {
		panic("analysis: nil log")
	}
	rows := a.grouper.Group(log)
	kinds := a.kinds[:0]
	for i := range rows.Files {
		kinds = append(kinds, a.sys.LayerFor(rows.Files[i].Path).Kind())
	}
	for i := range rows.Posix {
		kinds = append(kinds, a.sys.LayerFor(rows.Posix[i].Path).Kind())
	}
	for i := range rows.StdioX {
		kinds = append(kinds, a.sys.LayerFor(rows.StdioX[i].Path).Kind())
	}
	a.kinds = kinds

	lc := a.beginLog(rows.Job, rows.Domain)
	a.observeTuning(rows)
	for i := range rows.Files {
		a.foldFile(lc, &rows.Files[i], kinds[i])
	}
	kinds = kinds[len(rows.Files):]
	for i := range rows.Posix {
		a.foldPosixSizes(lc, &rows.Posix[i], kinds[i])
	}
	kinds = kinds[len(rows.Posix):]
	for i := range rows.StdioX {
		a.foldStdioXSizes(&rows.StdioX[i], kinds[i])
	}
}

// accountFile applies the paper's accounting rules to one file.
func (a *Aggregator) accountFile(ls *LayerStats, ds *DomainStats, f *darshan.FileRow, kind iosim.LayerKind) {
	acct, perfIface := f.Accounted()
	readB := float64(acct.ReadB)
	writeB := float64(acct.WriteB)
	readTime := acct.ReadT
	writeTime := acct.WriteT

	ls.Files++
	ls.Bytes[Read] += readB
	ls.Bytes[Write] += writeB
	ls.IOTime[Read] += readTime
	ls.IOTime[Write] += writeTime

	// Interface attribution (Table 6): MPI-IO wins over its POSIX
	// substrate; STDIO files are those with STDIO records.
	var iface darshan.ModuleID
	switch {
	case f.Mpiio.Present:
		iface = darshan.ModuleMPIIO
	case f.Posix.Present:
		iface = darshan.ModulePOSIX
	default:
		iface = darshan.ModuleSTDIO
	}
	ls.InterfaceFiles[iface]++

	// Per-direction transfer bins and >1 TB tails.
	ih := ls.interfaceHist(iface)
	if readB > 0 {
		bin := units.TransferBinFor(units.ByteSize(readB))
		ls.TransferHist[Read].Add(int(bin), 1)
		ih[Read].Add(int(bin), 1)
		if units.ByteSize(readB) > units.TiB {
			ls.HugeFiles[Read]++
		}
	}
	if writeB > 0 {
		bin := units.TransferBinFor(units.ByteSize(writeB))
		ls.TransferHist[Write].Add(int(bin), 1)
		ih[Write].Add(int(bin), 1)
		if units.ByteSize(writeB) > units.TiB {
			ls.HugeFiles[Write]++
		}
	}

	// Classification (Figures 6 and 8).
	if readB > 0 || writeB > 0 {
		class := classify(readB, writeB)
		ls.ClassFiles[class]++
		if !f.Posix.Present && !f.Mpiio.Present && f.Stdio.Present {
			ls.StdioClassFiles[class]++
		}
	}

	// Domain attribution (Figures 7 and 10).
	if ds != nil {
		if kind == iosim.InSystem {
			ds.InSystemBytes[Read] += readB
			ds.InSystemBytes[Write] += writeB
		}
		if f.Stdio.Present {
			ds.StdioBytes[Read] += float64(f.Stdio.ReadB)
			ds.StdioBytes[Write] += float64(f.Stdio.WriteB)
		}
	}

	// Shared-file performance (Figures 11 and 12): single-shared files only
	// (§3.4), POSIX and STDIO interfaces, MB/s per direction.
	if acct.Shared && (perfIface == darshan.ModulePOSIX || perfIface == darshan.ModuleSTDIO) {
		p := ls.perfCell(perfIface)
		if readB > 0 && readTime > 0 {
			bin := units.TransferBinFor(units.ByteSize(readB))
			p[Read][bin] = append(p[Read][bin], readB/readTime/1e6)
		}
		if writeB > 0 && writeTime > 0 {
			bin := units.TransferBinFor(units.ByteSize(writeB))
			p[Write][bin] = append(p[Write][bin], writeB/writeTime/1e6)
		}
	}
}

func classify(readB, writeB float64) Class {
	switch {
	case readB > 0 && writeB > 0:
		return ReadWrite
	case readB > 0:
		return ReadOnly
	default:
		return WriteOnly
	}
}

// Merge folds another aggregator (built over disjoint logs, same system)
// into this one.
func (a *Aggregator) Merge(other *Aggregator) {
	if other.sys.Name != a.sys.Name {
		panic(fmt.Sprintf("analysis: merging %s aggregator into %s", other.sys.Name, a.sys.Name))
	}
	a.logs += other.logs
	a.nodeHours += other.nodeHours
	for id, ov := range other.jobs {
		jv, ok := a.jobs[id]
		if !ok {
			a.jobs[id] = ov
			continue
		}
		jv.layers[0] = jv.layers[0] || ov.layers[0]
		jv.layers[1] = jv.layers[1] || ov.layers[1]
		jv.usedStdio = jv.usedStdio || ov.usedStdio
		if jv.domain == "" {
			jv.domain = ov.domain
		}
	}
	for i := range a.layers {
		a.layers[i].merge(other.layers[i])
	}
	for d, ods := range other.domains {
		ds, ok := a.domains[d]
		if !ok {
			a.domains[d] = ods
			continue
		}
		for dir := 0; dir < int(numDirections); dir++ {
			ds.InSystemBytes[dir] += ods.InSystemBytes[dir]
			ds.StdioBytes[dir] += ods.StdioBytes[dir]
		}
	}
	for id := range other.domainCovered {
		a.domainCovered[id] = true
	}
	for id := range other.domainUncovered {
		a.domainUncovered[id] = true
	}
	for m := 0; m < 12; m++ {
		a.monthlyLogs[m] += other.monthlyLogs[m]
		a.monthlyBytes[m] += other.monthlyBytes[m]
	}
	for uid, v := range other.userBytes {
		a.userBytes[uid] += v
	}
	for uid, n := range other.userFiles {
		a.userFiles[uid] += n
	}
	a.mergeTuning(other)
}
