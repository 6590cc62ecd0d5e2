package colfmt_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"iolayers/internal/darshan/colfmt"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/workload"
)

// TestGoldenFileBytes pins the .dgc file format itself, not a report
// rendered from it: every log of the seeded reference campaigns, appended in
// job-index order at 64 logs per segment, must produce exactly these bytes.
// Row order within each table is first-appearance order out of
// darshan.Grouper, so a change to the grouping shows up here before it shows
// up anywhere else.
func TestGoldenFileBytes(t *testing.T) {
	for _, tc := range []struct {
		system string
		logs   int
		size   int
		sha256 string
	}{
		{"Summit", 5216, 2430022, "d0ad70196f53ff959a44f7022fb287d551e9c3c1a7fededf3cfba64266e86dc5"},
		{"Cori", 2685, 874434, "f7fd24f733d431a83976503f71716804c23167e650733898f29a31a8a2c34488"},
	} {
		t.Run(tc.system, func(t *testing.T) {
			sys := systems.ByName(tc.system)
			gen, err := workload.NewGenerator(workload.Profiles()[sys.Name], sys,
				workload.Config{Seed: 11, JobScale: 0.0005, FileScale: 0.02})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			w, err := colfmt.NewWriter(&buf, 64)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < gen.Jobs(); i++ {
				for _, log := range gen.GenerateJob(i) {
					if err := w.Append(log); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if w.Count() != tc.logs || buf.Len() != tc.size || hex.EncodeToString(sum[:]) != tc.sha256 {
				t.Fatalf("%d logs, %d bytes, sha256 %x; want %d logs, %d bytes, sha256 %s",
					w.Count(), buf.Len(), sum, tc.logs, tc.size, tc.sha256)
			}
		})
	}
}
