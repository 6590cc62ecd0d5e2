package darshan

import (
	"fmt"
	"hash/fnv"
)

// SharedRank is the rank value of a record that describes a file accessed
// collectively by every process of the job; Darshan reduces such records to
// a single entry with rank −1 (paper §3.4).
const SharedRank int32 = -1

// RecordID is the stable 64-bit identity of a file path within a log,
// computed by hashing the path. Paths are also stored in the log's name
// table so records can be resolved back to paths.
type RecordID uint64

// HashPath computes the RecordID for a path (FNV-1a, as a stand-in for
// Darshan's path hashing).
func HashPath(path string) RecordID {
	h := fnv.New64a()
	// fnv.Write never fails.
	_, _ = h.Write([]byte(path))
	return RecordID(h.Sum64())
}

// JobHeader carries the per-job execution metadata Darshan records at the
// log level: job identity, process count, and the instrumented time window
// (paper §2.2).
type JobHeader struct {
	JobID     uint64
	UserID    uint64
	NProcs    int
	StartTime int64 // Unix seconds at MPI_Init
	EndTime   int64 // Unix seconds at MPI_Finalize
	Exe       string
	// Metadata carries free-form key/value annotations. The synthetic
	// scheduler join uses "project" to attribute jobs to science domains,
	// mirroring the OLCF scheduler-log / NERSC NEWT joins in §3.3.2.
	Metadata map[string]string
}

// Runtime returns the instrumented wall-clock duration in seconds.
func (j JobHeader) Runtime() float64 {
	if j.EndTime < j.StartTime {
		return 0
	}
	return float64(j.EndTime - j.StartTime)
}

// NodeSeconds returns the node-seconds consumed, assuming the conventional
// processes-per-node density for the system (supplied by the caller since it
// is a machine property, not a log property). It is a whole number, so a sum
// of them is exact in float64 whatever order it is taken in; node-hours are
// that sum over 3600.
func (j JobHeader) NodeSeconds(procsPerNode int) float64 {
	if procsPerNode <= 0 {
		panic(fmt.Sprintf("darshan: procsPerNode %d must be positive", procsPerNode))
	}
	nodes := (j.NProcs + procsPerNode - 1) / procsPerNode
	if nodes < 1 {
		nodes = 1
	}
	return float64(nodes) * j.Runtime()
}

// FileRecord is one module's counter record for one (file, rank) pair. A
// rank of SharedRank marks a reduced record covering all ranks.
type FileRecord struct {
	Module    ModuleID
	Record    RecordID
	Rank      int32
	Counters  []int64
	FCounters []float64
}

// NewFileRecord allocates a zeroed record with the module's counter widths.
func NewFileRecord(m ModuleID, id RecordID, rank int32) *FileRecord {
	return &FileRecord{
		Module:    m,
		Record:    id,
		Rank:      rank,
		Counters:  make([]int64, NumCounters(m)),
		FCounters: make([]float64, NumFCounters(m)),
	}
}

// Clone returns a deep copy of the record.
func (r *FileRecord) Clone() *FileRecord {
	c := &FileRecord{
		Module:    r.Module,
		Record:    r.Record,
		Rank:      r.Rank,
		Counters:  append([]int64(nil), r.Counters...),
		FCounters: append([]float64(nil), r.FCounters...),
	}
	return c
}

// Log is a fully parsed Darshan-equivalent log: the job header, the
// path-name table, every module record, and (when extended tracing was
// enabled) the DXT traces.
type Log struct {
	Job     JobHeader
	Names   map[RecordID]string
	Records []*FileRecord
	// DXT holds extended-tracing records; empty unless the producing
	// runtime had EnableDXT set (as on the paper's systems, where DXT was
	// disabled by default, §2.2).
	DXT []DXTTrace
}

// PathOf resolves a record's path from the name table, or "" if the record
// id is not present (possible when a log was truncated).
func (l *Log) PathOf(id RecordID) string { return l.Names[id] }

// RecordsFor returns the records belonging to one module, in log order.
func (l *Log) RecordsFor(m ModuleID) []*FileRecord {
	var out []*FileRecord
	for _, r := range l.Records {
		if r.Module == m {
			out = append(out, r)
		}
	}
	return out
}
