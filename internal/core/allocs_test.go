package core

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"iolayers/internal/iosim/systems"
	"iolayers/internal/units"
)

// TestColumnarAllocs pins exactly what the columnar paths allocate over
// the shared corpus at one worker: the conversion and the fold per log,
// the narrow scans per segment. Each pin holds to half an allocation per
// item. The runtime's own allocations and the race detector's sync.Pool
// drops move a count by less than that, and one more allocation per item
// moves it by more. A change that moves a count on purpose moves its pin
// to the count the failure prints (measured with go1.24). The row path's
// pin is TestIngestAllocsPerEntry.
func TestColumnarAllocs(t *testing.T) {
	archive, columnar, logs := convertCorpus(t)
	segments := (logs + 7) / 8
	sys := systems.NewSummit()
	dst := filepath.Join(t.TempDir(), "pin.dgc")
	ctx := context.Background()
	for _, pin := range []struct {
		name  string
		want  float64
		items int
		run   func() error
	}{
		{"ConvertArchive, per log", 16540, logs, func() error {
			_, err := ConvertArchive(ctx, archive, dst, ConvertOptions{})
			return err
		}},
		{"IngestColumnar, per log", 18002, logs, func() error {
			_, _, err := IngestColumnar(ctx, sys, columnar, IngestOptions{Workers: 1})
			return err
		}},
		{"QueryColumnarTotals, per segment", 9835, segments, func() error {
			_, err := QueryColumnarTotals(ctx, columnar, ColumnarQuery{})
			return err
		}},
		{"QueryColumnarTotals over 1 TiB, per segment", 1414, segments, func() error {
			_, err := QueryColumnarTotals(ctx, columnar, ColumnarQuery{MinFileBytes: int64(units.TiB) + 1})
			return err
		}},
	} {
		var err error
		got := testing.AllocsPerRun(1, func() {
			if e := pin.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", pin.name, err)
		}
		t.Logf("%s: %v allocations over %d items", pin.name, got, pin.items)
		if math.Abs(got-pin.want) > float64(pin.items)/2 {
			t.Errorf("%s: %v allocations over %d items, pinned at %v", pin.name, got, pin.items, pin.want)
		}
	}
}
