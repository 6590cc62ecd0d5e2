package analysis_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"iolayers/internal/analysis"
	"iolayers/internal/darshan"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/report"
	"iolayers/internal/workload"
)

// TestFoldIsPartitionInvariant pins the property the parallel ingest
// driver's determinism rests on: workers pull items as they free up, so
// which aggregator folds which log, and the order partials merge in, are
// up to the scheduler. Folding a campaign's logs into W aggregators by a
// seeded random assignment and merging them in a seeded random order must
// render the same bytes as one sequential fold, and leave the same state —
// what a lake or checkpoint persists — up to the order of the bandwidth
// sample multisets.
func TestFoldIsPartitionInvariant(t *testing.T) {
	sys := systems.NewSummit()
	gen, err := workload.NewGenerator(workload.Summit(), sys,
		workload.Config{Seed: 21, JobScale: 0.0002, FileScale: 0.02, ExtendedStdio: true})
	if err != nil {
		t.Fatal(err)
	}
	var logs []*darshan.Log
	for i := 0; i < gen.Jobs(); i++ {
		logs = append(logs, gen.GenerateJob(i)...)
	}
	seq := analysis.NewAggregator(sys)
	for _, log := range logs {
		seq.AddLog(log)
	}
	wantText, wantJSON, wantState := report.Everything(seq.Report()), rendered(t, seq), sortedState(seq)

	for _, w := range []int{2, 3, 8} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			parts := make([]*analysis.Aggregator, w)
			for i := range parts {
				parts[i] = analysis.NewAggregator(sys)
			}
			for _, log := range logs {
				parts[rng.Intn(w)].AddLog(log)
			}
			// Merge a random pair until one aggregator is left, so partials
			// meet in every shape, not just one after another.
			for len(parts) > 1 {
				i, j := rng.Intn(len(parts)), rng.Intn(len(parts)-1)
				if j >= i {
					j++
				}
				parts[i].Merge(parts[j])
				parts = append(parts[:j], parts[j+1:]...)
			}
			if report.Everything(parts[0].Report()) != wantText {
				t.Errorf("W=%d seed %d: text report differs from the sequential fold", w, seed)
			}
			if rendered(t, parts[0]) != wantJSON {
				t.Errorf("W=%d seed %d: JSON report differs from the sequential fold", w, seed)
			}
			if got := sortedState(parts[0]); !reflect.DeepEqual(got, wantState) {
				t.Errorf("W=%d seed %d: state differs from the sequential fold's (node-hours %v vs %v, I/O time %v %v vs %v %v)",
					w, seed, got.NodeHours, wantState.NodeHours, got.Layers[0].IOTime, got.Layers[1].IOTime,
					wantState.Layers[0].IOTime, wantState.Layers[1].IOTime)
			}
		}
	}
}

// sortedState is a's state with every bandwidth sample list sorted: the
// samples are a multiset, kept in the order they were folded.
func sortedState(a *analysis.Aggregator) *analysis.AggregatorState {
	st := a.State()
	for _, ls := range st.Layers {
		for _, cell := range ls.Perf {
			for d := range cell {
				for b := range cell[d] {
					sort.Float64s(cell[d][b])
				}
			}
		}
	}
	return st
}
