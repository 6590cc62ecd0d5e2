package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"iolayers/internal/stats"
)

// runAll runs every workload: `runs` timed runs on consecutive seeds, then
// one traced run on the first. Each run is a child process of its own —
// this binary re-executed with the driver's flags — so RSS, heap and
// set-up never leak from one workload into the next, and only one child
// runs at a time.
func runAll(o options, runs int, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if o.workRoot == "" {
		o.workRoot = workDirName
	}
	if err := os.MkdirAll(o.workRoot, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(o.workRoot, "all")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	var rf resultFile
	code := 0
	for _, w := range workloadNames {
		for i := 0; i <= runs; i++ {
			seed, trace := o.seed+uint64(i), "0"
			if i == runs {
				seed, trace = o.seed, "1"
			}
			doc := filepath.Join(tmp, "run.json")
			args := []string{"--workload", w, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace,
				"-work", o.workRoot, "-out", doc}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d trace %s: %v\n", w, seed, trace, err)
				code = 1
				continue
			}
			var r runResult
			if err := readJSON(doc, &r); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				code = 1
				continue
			}
			rf.Runs = append(rf.Runs, &r)
		}
	}
	if out != "" {
		if err := writeJSONFile(out, rf); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// side is one result file's runs of one metric on one workload.
type side struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Runs   int     `json:"runs"`
}

func (s side) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func sideOf(v []float64) side {
	q1, q3 := quartiles(v)
	return side{Median: stats.Quantile(v, 0.5), Q1: q1, Q3: q3, Runs: len(v)}
}

// verdictRow is one (workload, end-to-end metric) pair's comparison.
type verdictRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	A        side    `json:"a"`
	B        side    `json:"b"`
	RelDiff  float64 `json:"rel_diff"` // (b-a)/a, signed so that positive is worse
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"`
}

// judge applies the rule every later PR is held to: worse when b's median
// is worse than a's by more than the bound; unresolved when it is not but
// either side's own quartile spread is wider than the bound, so "no
// change" was not shown; ok otherwise.
func judge(m metricDef, bound float64, a, b side) (float64, string) {
	var rel float64
	switch {
	case a.Median != 0:
		rel = (b.Median - a.Median) / math.Abs(a.Median)
	case b.Median != 0:
		rel = math.Inf(1)
	}
	if m.Better == "higher" {
		rel = -rel
	}
	switch {
	case rel > bound:
		return rel, "worse"
	case math.Max(a.spread(), b.spread()) > bound && bound > 0:
		return rel, "unresolved"
	}
	return rel, "ok"
}

// compareFiles prints, per (workload, end-to-end metric), both files'
// medians, the relative difference, the bound and the verdict, and exits
// non-zero on any "worse".
func compareFiles(pathA, pathB, benchFile, out string, stdout, stderr io.Writer) int {
	var a, b resultFile
	if err := errors.Join(readJSON(pathA, &a), readJSON(pathB, &b)); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	// callers = min(nproc, 4) is part of the load shape: files taken on
	// boxes where it differs measure different things.
	all := append(append([]*runResult(nil), a.Runs...), b.Runs...)
	for _, r := range all {
		if r.Callers != all[0].Callers {
			fmt.Fprintf(stderr, "bench: runs with %d and %d callers are not comparable\n", all[0].Callers, r.Callers)
			return 2
		}
	}
	bf := &benchmarkFile{}
	if err := readJSON(benchFile, bf); err != nil {
		fmt.Fprintf(stderr, "bench: %v; using the built-in bounds\n", err)
	}
	rows := compareResults(&a, &b, boundsFrom(bf))
	worse := printVerdicts(stdout, rows)
	if out != "" {
		if err := writeJSONFile(out, struct {
			A        string                           `json:"a"`
			B        string                           `json:"b"`
			Compare  []verdictRow                     `json:"compare"`
			PerLayer map[string]map[string][2]float64 `json:"per_layer"`
		}{pathA, pathB, rows, perLayerOf(&a, &b)}); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}

func compareResults(a, b *resultFile, bounds map[string]float64) []verdictRow {
	values := func(rf *resultFile, workload, metric string) []float64 {
		var v []float64
		for _, r := range rf.Runs {
			if x, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				v = append(v, x)
			}
		}
		return v
	}
	var rows []verdictRow
	for _, w := range workloadNames {
		for _, m := range endToEnd {
			va, vb := values(a, w, m.Name), values(b, w, m.Name)
			if !m.on(w) || len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := verdictRow{Workload: w, Metric: m.Name, Unit: m.Unit, A: sideOf(va), B: sideOf(vb), Bound: bounds[m.Name]}
			row.RelDiff, row.Verdict = judge(m, row.Bound, row.A, row.B)
			rows = append(rows, row)
		}
	}
	return rows
}

// perLayerOf pairs the two files' traced runs: workload → per-layer metric
// → [a, b]. They have no bound and get no verdict; they are the ledger a
// change explains its end-to-end difference with.
func perLayerOf(a, b *resultFile) map[string]map[string][2]float64 {
	out := map[string]map[string][2]float64{}
	for side, rf := range []*resultFile{a, b} {
		for _, r := range rf.Runs {
			if !r.Trace {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][2]float64{}
			}
			for _, d := range perLayer {
				if v, ok := r.Metrics[d.Name]; ok {
					pair := out[r.Workload][d.Name]
					pair[side] = v
					out[r.Workload][d.Name] = pair
				}
			}
		}
	}
	return out
}

func printVerdicts(w io.Writer, rows []verdictRow) (worse int) {
	fmt.Fprintf(w, "%-15s %-22s %14s %14s %8s %8s %7s %7s  %s\n",
		"workload", "metric", "median a", "median b", "worse by", "bound", "iqr a", "iqr b", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %-22s %14.4f %14.4f %+7.1f%% %7.1f%% %6.1f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.A.Median, r.B.Median, r.RelDiff*100, r.Bound*100,
			r.A.spread()*100, r.B.spread()*100, r.Verdict)
		if r.Verdict == "worse" {
			worse++
		}
	}
	return worse
}
