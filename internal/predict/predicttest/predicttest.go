// Package predicttest is the closed-loop validation harness for the
// predict layer. It builds the deterministic fixture corpus, mines it
// through the same path /v1/predict serves, replays the recommendations
// against the iosim layer models, and pins the outcome — forecast error,
// replay improvement, columnar reconciliation — inside explicit tolerance
// bands, fidelity-style. A recommendation engine that cannot beat the
// observed baseline, or a forecast whose error drifts out of band, fails
// the suite rather than shipping silently.
package predicttest

import (
	"context"
	"fmt"
	"path/filepath"

	"iolayers/internal/analysis"
	"iolayers/internal/core"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/predict"
	"iolayers/internal/serve"
)

// Fixture parameters: enough logs for four domains, several transfer
// sizes, and — at SegmentLogs 16 — a multi-segment columnar file the
// pruning path can actually skip parts of.
const (
	FixtureLogs = 96
	FixtureSeed = 9
	SegmentLogs = 16
)

// Outcome is everything one harness run measures.
type Outcome struct {
	// Report is the ingested fixture corpus's analysis.
	Report *analysis.Report
	// Profile is the mined prediction profile with the replay attached.
	Profile *predict.Profile
	// Scan is the unwindowed columnar pass; WindowedScan covers only the
	// first half of the fixture's time range, forcing pruning.
	Scan, WindowedScan *predict.ScanResult
	// HourlyBurst and HourlyForecast come from the scanned hourly series —
	// the fixture spans days, not months, so the monthly model is
	// degenerate on it and the cadence lives at hour resolution.
	HourlyBurst    predict.BurstModel
	HourlyForecast predict.Forecast
	// HoldoutErr is the seasonal baseline's held-out MAPE on a synthetic
	// diurnal series (the fixture's one-log-per-hour cadence carries no
	// seasonality to learn, so the model is scored on its model family).
	HoldoutErr float64
}

// run builds the corpus under dir (a scratch directory the caller owns),
// ingests it, converts it to columnar form, and measures everything the
// checks pin.
func run(ctx context.Context, dir string) (*Outcome, error) {
	sys := systems.NewSummit()
	logs := filepath.Join(dir, "logs")
	if err := serve.WriteFixture(logs, sys, FixtureLogs, FixtureSeed); err != nil {
		return nil, err
	}
	report, _, err := core.Ingest(ctx, sys, logs, core.IngestOptions{})
	if err != nil {
		return nil, err
	}

	out := &Outcome{Report: report}
	out.Profile = predict.FromReport(report).WithReplay(sys, report)

	dgc := filepath.Join(dir, "fixture.dgc")
	if _, err := core.Convert(ctx, logs, dgc, core.ConvertOptions{SegmentLogs: SegmentLogs}); err != nil {
		return nil, err
	}
	if out.Scan, err = predict.ScanColumnar(ctx, dgc, predict.ScanOptions{}); err != nil {
		return nil, err
	}
	// The fixture's transfer-size rotation peaks at ~2x the median hour —
	// right at the default burst factor — so the hourly model uses 1.5 to
	// pick the cadence out cleanly.
	out.HourlyBurst = predict.DetectBursts(out.Scan.HourlyVolumes(), 1.5)
	out.HourlyForecast = predict.ForecastNext(out.HourlyBurst, nil)
	// Fixture log i starts at i*3600; a window over the first half leaves
	// the later segments provably disjoint.
	half := int64(FixtureLogs/2) * 3600
	if out.WindowedScan, err = predict.ScanColumnar(ctx, dgc, predict.ScanOptions{To: half - 1}); err != nil {
		return nil, err
	}

	out.HoldoutErr = predict.HoldoutMAPE(DiurnalSeries(24*28), 24*21)
	return out, nil
}

// DiurnalSeries synthesizes n hours of seasonal volume: an hour-of-day
// ramp scaled by a day-of-week factor with a deterministic ripple — the
// ground truth the seasonal baseline is scored against.
func DiurnalSeries(n int) []predict.HourBucket {
	dow := [7]float64{0.5, 1, 1.15, 1.2, 1.15, 1, 0.6}
	out := make([]predict.HourBucket, n)
	for i := range out {
		h := int64(i)
		day := int((h/24 + 4) % 7)
		shape := 80 + 40*float64(h%24)
		ripple := 1 + 0.02*float64((i*7)%5-2)/2 // ±2%, period 5, mean ~0
		v := int64(shape * dow[day] * ripple * 1e6)
		out[i] = predict.HourBucket{Hour: h, Logs: 1, ReadBytes: v / 2, WriteBytes: v - v/2}
	}
	return out
}

// Check pins one measured quantity inside [Low, High].
type Check struct {
	Name      string
	Low, High float64
	Value     func(*Outcome) float64
}

// Result is one evaluated check.
type Result struct {
	Check Check
	Got   float64
	OK    bool
}

func (r Result) String() string {
	status := "ok"
	if !r.OK {
		status = "FAIL"
	}
	return fmt.Sprintf("%s: got %.6g, band [%.4g, %.4g]: %s",
		r.Check.Name, r.Got, r.Check.Low, r.Check.High, status)
}

// Checks is the pinned tolerance suite. Bands are deliberately loose
// enough to survive model retuning but tight enough that a recommender
// that stops beating the baseline, a forecast that stops forecasting, or
// a scan that stops reconciling all land outside them.
func Checks() []Check {
	return []Check{
		{
			// The closed loop: replaying the recommended placement through
			// iosim must strictly beat the observed baseline.
			Name: "replay improvement fraction",
			Low:  0.05, High: 0.95,
			Value: func(o *Outcome) float64 { return o.Profile.Replay.ImprovementFrac },
		},
		{
			Name: "replay recommended/baseline ratio",
			Low:  0, High: 0.95,
			Value: func(o *Outcome) float64 {
				return o.Profile.Replay.RecommendedSec / o.Profile.Replay.BaselineSec
			},
		},
		{
			Name: "replay moved files",
			Low:  1, High: 1e9,
			Value: func(o *Outcome) float64 { return float64(o.Profile.Replay.MovedFiles) },
		},
		{
			// Forecast quality: held-out MAPE of the seasonal baseline on
			// its own model family plus ripple stays under 5%.
			Name: "seasonal holdout MAPE",
			Low:  0, High: 0.05,
			Value: func(o *Outcome) float64 { return o.HoldoutErr },
		},
		{
			// The hourly burst model must find a forecastable cadence in
			// the fixture (confidence 0 would mean no bursts at all; the
			// fixture's transfer-size rotation has period 5 hours).
			Name: "hourly forecast confidence",
			Low:  0.2, High: 1,
			Value: func(o *Outcome) float64 { return o.HourlyForecast.Confidence },
		},
		{
			// Columnar reconciliation: the scanner's byte accounting must
			// agree with the aggregator's to within float-sum noise.
			Name: "columnar/report byte ratio",
			Low:  0.999, High: 1.001,
			Value: func(o *Outcome) float64 {
				var scan float64
				for _, h := range o.Scan.Hours {
					scan += h.Volume()
				}
				var rep float64
				for _, lr := range o.Report.Layers {
					rep += lr.Stats.Bytes[analysis.Read] + lr.Stats.Bytes[analysis.Write]
				}
				return scan / rep
			},
		},
		{
			// The windowed scan must prove pruning works: at 16 logs per
			// segment and a half-range window, at least two segments are
			// provably disjoint and skipped without decoding.
			Name: "segments pruned by time window",
			Low:  2, High: float64(FixtureLogs / SegmentLogs),
			Value: func(o *Outcome) float64 { return float64(o.WindowedScan.SegmentsPruned) },
		},
	}
}

// evaluate runs every check against one outcome.
func evaluate(o *Outcome) []Result {
	checks := Checks()
	out := make([]Result, len(checks))
	for i, c := range checks {
		got := c.Value(o)
		out[i] = Result{Check: c, Got: got, OK: got >= c.Low && got <= c.High}
	}
	return out
}

// failures filters evaluated results down to the out-of-band rows.
func failures(results []Result) []Result {
	var bad []Result
	for _, r := range results {
		if !r.OK {
			bad = append(bad, r)
		}
	}
	return bad
}
