package analysis

import (
	"fmt"
	"math"

	"iolayers/internal/darshan"
	"iolayers/internal/iosim"
	"iolayers/internal/stats"
	"iolayers/internal/units"
)

// Checkpoint support: an Aggregator's accumulated statistics, exported as a
// plain serializable value. A campaign checkpoint persists the merged
// AggregatorState of all completed work; resume reconstructs an equivalent
// Aggregator and continues folding logs into it. Because every statistic is
// an exact sum, count, or sample multiset — and gob round-trips float64
// bit-exactly — an aggregator rebuilt from its state is indistinguishable
// from one that never stopped: the final report is byte-identical.

// JobViewState is the serializable per-job state (layer exclusivity, STDIO
// usage, domain attribution).
type JobViewState struct {
	Layers    [2]bool
	UsedStdio bool
	Domain    string
}

// UserTuningState is the serializable per-user tuning-adoption state.
type UserTuningState struct {
	Seen       [2]bool
	MaxStripe  [2]int64
	CollOps    [2]int64
	IndepOps   [2]int64
	JobsInHalf [2]int64
}

// AggregatorState is a deep snapshot of an Aggregator, safe to serialize
// (all fields exported, gob-friendly) and independent of the aggregator it
// came from: mutating the source after State() does not alter the snapshot.
type AggregatorState struct {
	// System names the system profile the statistics were computed for;
	// restore refuses a mismatch.
	System        string
	LargeJobProcs int

	Logs         int64
	NodeHours    float64
	Jobs         map[uint64]JobViewState
	Tuning       map[uint64]UserTuningState
	MonthlyLogs  [12]int64
	MonthlyBytes [12]float64
	UserBytes    map[uint64]float64
	UserFiles    map[uint64]int64
	Layers       [2]*LayerStats
	Domains      map[string]*DomainStats

	DomainCovered   map[uint64]bool
	DomainUncovered map[uint64]bool
}

// State returns a deep snapshot of the aggregator's accumulated statistics.
// The aggregator may keep accumulating afterwards; the snapshot is
// unaffected.
func (a *Aggregator) State() *AggregatorState {
	st := &AggregatorState{
		System:          a.sys.Name,
		LargeJobProcs:   a.LargeJobProcs,
		Logs:            a.logs,
		NodeHours:       a.nodeSeconds / 3600,
		Jobs:            make(map[uint64]JobViewState, len(a.jobs)),
		Tuning:          make(map[uint64]UserTuningState, len(a.tuning)),
		MonthlyLogs:     a.monthlyLogs,
		MonthlyBytes:    a.monthlyBytes,
		UserBytes:       make(map[uint64]float64, len(a.userBytes)),
		UserFiles:       make(map[uint64]int64, len(a.userFiles)),
		Domains:         make(map[string]*DomainStats, len(a.domains)),
		DomainCovered:   make(map[uint64]bool, len(a.domainCovered)),
		DomainUncovered: make(map[uint64]bool, len(a.domainUncovered)),
	}
	for id, jv := range a.jobs {
		st.Jobs[id] = JobViewState{Layers: jv.layers, UsedStdio: jv.usedStdio, Domain: jv.domain}
	}
	for uid, ut := range a.tuning {
		st.Tuning[uid] = UserTuningState{Seen: ut.seen, MaxStripe: ut.maxStripe,
			CollOps: ut.collOps, IndepOps: ut.indepOps, JobsInHalf: ut.jobsInHalf}
	}
	for uid, v := range a.userBytes {
		st.UserBytes[uid] = v
	}
	for uid, n := range a.userFiles {
		st.UserFiles[uid] = n
	}
	for i := range a.layers {
		// merge into a fresh LayerStats deep-copies every map, histogram,
		// and perf-sample slice.
		ls := newLayerStats()
		ls.merge(a.layers[i])
		st.Layers[i] = ls
	}
	for d, ds := range a.domains {
		c := *ds
		st.Domains[d] = &c
	}
	for id := range a.domainCovered {
		st.DomainCovered[id] = true
	}
	for id := range a.domainUncovered {
		st.DomainUncovered[id] = true
	}
	return st
}

// sanitizeLayer fills any nil maps or histograms a serialization round trip
// may have left behind (gob omits zero-value fields), so merging the layer
// cannot panic. Histograms with unexpected bin counts are rejected.
func sanitizeLayer(ls *LayerStats) error {
	if ls.InterfaceFiles == nil {
		ls.InterfaceFiles = map[darshan.ModuleID]int64{}
	}
	if ls.InterfaceTransferHist == nil {
		ls.InterfaceTransferHist = map[darshan.ModuleID]*[numDirections]*stats.Histogram{}
	}
	if ls.Perf == nil {
		ls.Perf = map[darshan.ModuleID]*[numDirections][units.NumTransferBins][]float64{}
	}
	fix := func(h **stats.Histogram, bins int) error {
		if *h == nil {
			*h = stats.NewHistogram(bins)
			return nil
		}
		if len((*h).Counts) != bins {
			return fmt.Errorf("analysis: restored histogram has %d bins, want %d", len((*h).Counts), bins)
		}
		return nil
	}
	for d := 0; d < int(numDirections); d++ {
		if err := fix(&ls.TransferHist[d], units.NumTransferBins); err != nil {
			return err
		}
		if err := fix(&ls.RequestHist[d], units.NumRequestBins); err != nil {
			return err
		}
		if err := fix(&ls.LargeJobRequestHist[d], units.NumRequestBins); err != nil {
			return err
		}
		if err := fix(&ls.StdioXRequestHist[d], units.NumRequestBins); err != nil {
			return err
		}
	}
	for _, h := range ls.InterfaceTransferHist {
		for d := 0; d < int(numDirections); d++ {
			if err := fix(&h[d], units.NumTransferBins); err != nil {
				return err
			}
		}
	}
	return nil
}

// NewAggregatorFromState reconstructs an aggregator equivalent to the one
// State was called on. sys must be the same system profile the snapshot was
// computed for.
func NewAggregatorFromState(sys *iosim.System, st *AggregatorState) (*Aggregator, error) {
	if sys == nil {
		return nil, fmt.Errorf("analysis: nil system")
	}
	if st == nil {
		return nil, fmt.Errorf("analysis: nil state")
	}
	if st.System != sys.Name {
		return nil, fmt.Errorf("analysis: state is for system %q, not %q", st.System, sys.Name)
	}
	a := NewAggregator(sys)
	if st.LargeJobProcs > 0 {
		a.LargeJobProcs = st.LargeJobProcs
	}
	a.logs = st.Logs
	a.nodeSeconds = math.Round(st.NodeHours * 3600) // exact below 2^51 node-seconds
	a.monthlyLogs = st.MonthlyLogs
	a.monthlyBytes = st.MonthlyBytes
	for id, jv := range st.Jobs {
		a.jobs[id] = &jobView{layers: jv.Layers, usedStdio: jv.UsedStdio, domain: jv.Domain}
	}
	for uid, ut := range st.Tuning {
		a.tuning[uid] = &userTuning{seen: ut.Seen, maxStripe: ut.MaxStripe,
			collOps: ut.CollOps, indepOps: ut.IndepOps, jobsInHalf: ut.JobsInHalf}
	}
	for uid, v := range st.UserBytes {
		a.userBytes[uid] = v
	}
	for uid, n := range st.UserFiles {
		a.userFiles[uid] = n
	}
	for i := range a.layers {
		if st.Layers[i] == nil {
			continue
		}
		if err := sanitizeLayer(st.Layers[i]); err != nil {
			return nil, err
		}
		a.layers[i].merge(st.Layers[i])
	}
	for d, ds := range st.Domains {
		if ds == nil {
			continue
		}
		c := *ds
		a.domains[d] = &c
	}
	for id := range st.DomainCovered {
		a.domainCovered[id] = true
	}
	for id := range st.DomainUncovered {
		a.domainUncovered[id] = true
	}
	return a, nil
}

// MergeState folds a serialized AggregatorState — a lake segment, a
// checkpoint, any gob round trip of State() — into the aggregator, as if
// the logs behind the snapshot had been folded in directly. The state must
// be for the same system profile. Because gob round-trips float64
// bit-exactly and Merge is the same operation the parallel worker pool
// uses on its partials, an aggregator rebuilt by merging persisted
// segments renders the identical report to one that never left memory.
func (a *Aggregator) MergeState(st *AggregatorState) error {
	other, err := NewAggregatorFromState(a.sys, st)
	if err != nil {
		return err
	}
	a.Merge(other)
	return nil
}

// SystemName returns the name of the system profile this aggregator
// accumulates statistics for ("Summit", "Cori").
func (a *Aggregator) SystemName() string { return a.sys.Name }

// System returns the system profile this aggregator was built over.
func (a *Aggregator) System() *iosim.System { return a.sys }

// Logs returns the number of logs folded in so far.
func (a *Aggregator) Logs() int64 { return a.logs }

// Clone returns a deep copy of the aggregator: folding logs into (or
// merging into) either copy never alters the other. It is the basis of
// copy-on-write re-ingestion — a service can keep serving reports from the
// original while new logs fold into the clone.
func (a *Aggregator) Clone() *Aggregator {
	c, err := NewAggregatorFromState(a.sys, a.State())
	if err != nil {
		// State() came from this very aggregator; a mismatch is impossible.
		panic(fmt.Sprintf("analysis: clone rejected own state: %v", err))
	}
	return c
}
