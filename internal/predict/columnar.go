package predict

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"iolayers/internal/darshan/colfmt"
	"iolayers/internal/darshan/logfmt"
)

// ScanOptions configures a columnar miner pass.
type ScanOptions struct {
	// From/To bound the scan to logs whose start time falls in
	// [From, To] (unix seconds). A zero To leaves the window open above;
	// with both zero every log is scanned. Segments whose start-time
	// stats prove no log can fall inside the window are skipped without
	// decoding.
	From, To int64
	// Limits bounds decoder allocations; zero fields take
	// logfmt.DefaultLimits.
	Limits logfmt.DecodeLimits
}

// HourBucket is one hour's activity: the sub-month resolution the
// frozen aggregate state cannot provide and the seasonal model needs.
type HourBucket struct {
	// Hour is the unix hour index (start time / 3600).
	Hour       int64 `json:"hour"`
	Logs       int64 `json:"logs"`
	ReadBytes  int64 `json:"read_bytes"`
	WriteBytes int64 `json:"write_bytes"`
}

// Volume is the bucket's total transferred bytes.
func (h HourBucket) Volume() float64 { return float64(h.ReadBytes + h.WriteBytes) }

// DomainActivity is one domain's share of a scanned window.
type DomainActivity struct {
	Domain     string `json:"domain"`
	Logs       int64  `json:"logs"`
	ReadBytes  int64  `json:"read_bytes"`
	WriteBytes int64  `json:"write_bytes"`
}

// ScanResult is one columnar miner pass: the hourly series, per-domain
// totals, and how much work segment pruning saved.
type ScanResult struct {
	Hours   []HourBucket
	Domains []DomainActivity
	// SegmentsScanned/SegmentsPruned count decoded vs stats-skipped
	// segments.
	SegmentsScanned int64
	SegmentsPruned  int64
}

// HourlyVolumes returns the scan's per-bucket volumes in hour order.
func (sr *ScanResult) HourlyVolumes() []float64 {
	out := make([]float64, len(sr.Hours))
	for i, h := range sr.Hours {
		out[i] = h.Volume()
	}
	return out
}

// ScanColumnar mines a .dgc campaign into an hourly activity series and
// per-domain totals, counting each file's bytes by the rule the aggregator
// uses (darshan.FileRow.Accounted) so scanned totals reconcile exactly with
// the report.
// Segments are pruned by the start-time column's stats block before any
// column is decoded — the PeekSegment fast path.
func ScanColumnar(ctx context.Context, path string, opts ScanOptions) (*ScanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("predict: opening %s: %w", path, err)
	}
	defer f.Close()
	cr, err := colfmt.NewReaderWithLimits(f, opts.Limits)
	if err != nil {
		return nil, fmt.Errorf("predict: %s: %w", path, err)
	}

	res := &ScanResult{}
	hours := map[int64]*HourBucket{}
	domains := map[string]*DomainActivity{}
	windowed := opts.From != 0 || opts.To != 0
	for seg := 0; ; seg++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		raw, err := cr.NextRaw()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("predict: %s segment %d: %w", path, seg, err)
		}
		if windowed {
			info, err := colfmt.PeekSegment(raw, opts.Limits)
			if err != nil {
				return nil, fmt.Errorf("predict: %s segment %d: %w", path, seg, err)
			}
			if min, max, ok := info.TimeRange(); ok {
				if (opts.To != 0 && min > opts.To) || max < opts.From {
					res.SegmentsPruned++
					continue
				}
			}
		}
		b, err := colfmt.DecodeSegment(raw, colfmt.GroupLogs|colfmt.GroupFiles, opts.Limits)
		if err != nil {
			return nil, fmt.Errorf("predict: %s segment %d: %w", path, seg, err)
		}
		res.SegmentsScanned++
		rowStart := 0
		for l := 0; l < b.NumLogs; l++ {
			rowEnd := int(colfmt.At(b.FileEnd, l))
			start := colfmt.At(b.StartTime, l)
			if start < opts.From || (opts.To != 0 && start > opts.To) {
				rowStart = rowEnd
				continue
			}
			var readB, writeB int64
			for r := rowStart; r < rowEnd; r++ {
				f := b.FileRow(r)
				acct, _ := f.Accounted()
				readB += acct.ReadB
				writeB += acct.WriteB
			}
			rowStart = rowEnd

			hb := hours[start/3600]
			if hb == nil {
				hb = &HourBucket{Hour: start / 3600}
				hours[hb.Hour] = hb
			}
			hb.Logs++
			hb.ReadBytes += readB
			hb.WriteBytes += writeB

			name := ""
			if id := colfmt.At(b.Domain, l); id > 0 && int(id) < len(b.Dict) {
				name = b.Dict[id]
			}
			if name != "" {
				da := domains[name]
				if da == nil {
					da = &DomainActivity{Domain: name}
					domains[name] = da
				}
				da.Logs++
				da.ReadBytes += readB
				da.WriteBytes += writeB
			}
		}
	}

	res.Hours = make([]HourBucket, 0, len(hours))
	for _, hb := range hours {
		res.Hours = append(res.Hours, *hb)
	}
	sort.Slice(res.Hours, func(i, j int) bool { return res.Hours[i].Hour < res.Hours[j].Hour })
	res.Domains = make([]DomainActivity, 0, len(domains))
	for _, da := range domains {
		res.Domains = append(res.Domains, *da)
	}
	sort.Slice(res.Domains, func(i, j int) bool { return res.Domains[i].Domain < res.Domains[j].Domain })
	return res, nil
}

// Seasonal is the hour-of-day / day-of-week baseline: expected volume is
// the hour-of-day mean scaled by the day-of-week factor. It is the
// simplest model that captures diurnal shape and weekend dips, and being
// a pure average it is deterministic and cheap to refit.
type Seasonal struct {
	// HourOfDay[h] is the mean volume of observed buckets at hour-of-day
	// h (UTC).
	HourOfDay [24]float64 `json:"hour_of_day"`
	// DayFactor[d] scales by day-of-week (0 = Sunday, UTC); 1 means the
	// day moves average volume.
	DayFactor [7]float64 `json:"day_factor"`
	// Mean is the overall observed mean volume.
	Mean float64 `json:"mean"`
}

// dayOfWeek maps a unix hour index to 0=Sunday..6=Saturday (UTC; the
// epoch, hour 0, was a Thursday).
func dayOfWeek(hour int64) int {
	d := (hour/24 + 4) % 7
	if d < 0 {
		d += 7
	}
	return int(d)
}

// FitSeasonal fits the baseline to an hourly series.
func FitSeasonal(hours []HourBucket) *Seasonal {
	s := &Seasonal{}
	for i := range s.DayFactor {
		s.DayFactor[i] = 1
	}
	if len(hours) == 0 {
		return s
	}
	var hodSum [24]float64
	var hodN [24]int64
	var dowSum [7]float64
	var dowN [7]int64
	var total float64
	for _, h := range hours {
		v := h.Volume()
		hod := int(h.Hour % 24)
		hodSum[hod] += v
		hodN[hod]++
		dow := dayOfWeek(h.Hour)
		dowSum[dow] += v
		dowN[dow]++
		total += v
	}
	s.Mean = canon(total / float64(len(hours)))
	for i := range s.HourOfDay {
		if hodN[i] > 0 {
			s.HourOfDay[i] = canon(hodSum[i] / float64(hodN[i]))
		}
	}
	if s.Mean > 0 {
		for i := range s.DayFactor {
			if dowN[i] > 0 {
				s.DayFactor[i] = canon(dowSum[i] / float64(dowN[i]) / s.Mean)
			}
		}
	}
	return s
}

// Predict returns the baseline's expected volume for a unix hour index.
func (s *Seasonal) Predict(hour int64) float64 {
	return s.HourOfDay[hour%24] * s.DayFactor[dayOfWeek(hour)]
}

// HoldoutMAPE fits on the first train buckets of the series and scores
// the baseline's forecast error over the remainder — the held-out-window
// quality measure the predicttest tolerance bands pin.
func HoldoutMAPE(hours []HourBucket, train int) float64 {
	if train <= 0 || train >= len(hours) {
		return 0
	}
	s := FitSeasonal(hours[:train])
	holdout := hours[train:]
	pred := make([]float64, len(holdout))
	actual := make([]float64, len(holdout))
	for i, h := range holdout {
		pred[i] = s.Predict(h.Hour)
		actual[i] = h.Volume()
	}
	return MAPE(pred, actual)
}
