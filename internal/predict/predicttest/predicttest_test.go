package predicttest

import (
	"context"
	"testing"

	"iolayers/internal/predict"
)

func TestClosedLoopBands(t *testing.T) {
	o, err := run(context.Background(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range evaluate(o) {
		t.Log(r)
		if !r.OK {
			t.Errorf("out of band: %s", r)
		}
	}

	// The closed-loop property itself, independent of band placement:
	// recommended placement never loses to the observed baseline, and with
	// moves on the books the win is strict.
	rp := o.Profile.Replay
	if rp.RecommendedSec > rp.BaselineSec {
		t.Errorf("recommended %v > baseline %v", rp.RecommendedSec, rp.BaselineSec)
	}
	if rp.MovedFiles > 0 && rp.RecommendedSec >= rp.BaselineSec {
		t.Errorf("moves recorded but no strict improvement: %+v", rp)
	}
}

func TestRunDeterministic(t *testing.T) {
	ctx := context.Background()
	a, err := run(ctx, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(ctx, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if a.Profile.Replay.RecommendedSec != b.Profile.Replay.RecommendedSec ||
		a.Profile.Replay.BaselineSec != b.Profile.Replay.BaselineSec {
		t.Errorf("replay differs across runs: %+v vs %+v", a.Profile.Replay, b.Profile.Replay)
	}
	if a.HoldoutErr != b.HoldoutErr {
		t.Errorf("holdout error differs: %v vs %v", a.HoldoutErr, b.HoldoutErr)
	}
	if len(a.Scan.Hours) != len(b.Scan.Hours) {
		t.Errorf("scans differ: %d vs %d hours", len(a.Scan.Hours), len(b.Scan.Hours))
	}
}

// TestBandsCanFail perturbs the measured outcome and proves the tolerance
// bands are live checks, not decoration: a broken recommender and a
// scrambled forecast must both land outside their bands.
func TestBandsCanFail(t *testing.T) {
	o, err := run(context.Background(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// A "recommender" that moved nothing and saved nothing.
	broken := *o
	brokenReplay := *o.Profile.Replay
	brokenReplay.RecommendedSec = brokenReplay.BaselineSec
	brokenReplay.ImprovementFrac = 0
	brokenReplay.MovedFiles = 0
	brokenProfile := *o.Profile
	brokenProfile.Replay = &brokenReplay
	broken.Profile = &brokenProfile
	if n := len(failures(evaluate(&broken))); n < 3 {
		t.Errorf("zero-improvement replay tripped %d checks, want >= 3 (improvement, ratio, moved files)", n)
	}

	// A forecast scored against a series whose holdout window abandons the
	// trained seasonality: the workload shifts 10x after week three, the
	// kind of regime change a fitted baseline cannot see coming.
	series := DiurnalSeries(24 * 28)
	for i := 24 * 21; i < len(series); i++ {
		series[i].ReadBytes *= 10
		series[i].WriteBytes *= 10
	}
	scrambled := *o
	scrambled.HoldoutErr = predict.HoldoutMAPE(series, 24*21)
	failed := false
	for _, r := range evaluate(&scrambled) {
		if r.Check.Name == "seasonal holdout MAPE" && !r.OK {
			failed = true
		}
	}
	if !failed {
		t.Errorf("anti-seasonal holdout MAPE %v stayed in band; the check cannot fail", scrambled.HoldoutErr)
	}
}
