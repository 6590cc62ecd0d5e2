package analysis_test

import (
	"bytes"
	"math/rand"
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
// render the same bytes as one sequential fold, and leave the same state
// bytes — what a lake or checkpoint persists.
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
	wantText, wantJSON, wantState := report.Everything(seq.Report()), rendered(t, seq), stateBytes(t, seq)

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
			if got := stateBytes(t, parts[0]); !bytes.Equal(got, wantState) {
				st, want := parts[0].State(), seq.State()
				t.Errorf("W=%d seed %d: state bytes differ from the sequential fold's (node-hours %v vs %v, I/O time %v %v vs %v %v)",
					w, seed, st.NodeHours, want.NodeHours, st.Layers[0].IOTime, st.Layers[1].IOTime,
					want.Layers[0].IOTime, want.Layers[1].IOTime)
			}
		}
	}
}

func stateBytes(t *testing.T, a *analysis.Aggregator) []byte {
	t.Helper()
	b, err := a.State().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
