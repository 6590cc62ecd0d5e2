// Package report renders analysis results as the tables and figure series
// of the paper: plain-text tables mirroring Tables 2–6 and labeled data
// series (one row per bin) for Figures 3–12, suitable for diffing against
// EXPERIMENTS.md or plotting externally.
package report

import (
	"fmt"
	"sort"
	"strings"

	"iolayers/internal/analysis"
	"iolayers/internal/darshan"
	"iolayers/internal/iosim/serverstats"
	"iolayers/internal/units"
)

// HumanBytes renders a byte volume with a decimal unit, as the paper's
// tables do (PB/TB/GB/MB).
func HumanBytes(b float64) string {
	switch {
	case b >= 1e15:
		return fmt.Sprintf("%.2f PB", b/1e15)
	case b >= 1e12:
		return fmt.Sprintf("%.2f TB", b/1e12)
	case b >= 1e9:
		return fmt.Sprintf("%.2f GB", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.2f MB", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.2f KB", b/1e3)
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}

// HumanCount renders a count with M/K suffixes, as Table 2 does.
func HumanCount(n int64) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1fK", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// table renders a fixed-width text table.
func table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Table2 renders the campaign summary (paper Table 2) for one or more
// systems.
func Table2(reports ...*analysis.Report) string {
	rows := make([][]string, 0, len(reports))
	for _, r := range reports {
		rows = append(rows, []string{
			r.Summary.System,
			HumanCount(r.Summary.Logs),
			HumanCount(r.Summary.Jobs),
			HumanCount(r.Summary.Files),
			fmt.Sprintf("%.1f", r.Summary.NodeHours),
		})
	}
	return "Table 2: Darshan data summary\n" +
		table([]string{"System", "Logs", "Jobs", "Files", "Node-hours"}, rows)
}

// Table3 renders per-layer file counts and transfer volumes (paper Table 3).
func Table3(r *analysis.Report) string {
	rows := make([][]string, 0, 2)
	for _, lr := range r.Layers {
		rows = append(rows, []string{
			r.Summary.System,
			lr.Layer,
			HumanCount(lr.Stats.Files),
			HumanBytes(lr.Stats.Bytes[analysis.Read]),
			HumanBytes(lr.Stats.Bytes[analysis.Write]),
		})
	}
	return "Table 3: files and data transfer per storage layer\n" +
		table([]string{"System", "Layer", "Files", "Read", "Write"}, rows)
}

// Table4 renders the >1 TB file tails (paper Table 4).
func Table4(r *analysis.Report) string {
	rows := make([][]string, 0, 2)
	for _, lr := range r.Layers {
		rows = append(rows, []string{
			r.Summary.System,
			lr.Layer,
			fmt.Sprintf("%d", lr.Stats.HugeFiles[analysis.Read]),
			fmt.Sprintf("%d", lr.Stats.HugeFiles[analysis.Write]),
		})
	}
	return "Table 4: files with >1 TB total data transfer\n" +
		table([]string{"System", "Layer", "Read files", "Write files"}, rows)
}

// Table5 renders job layer exclusivity (paper Table 5).
func Table5(r *analysis.Report) string {
	e := r.Exclusivity
	rows := [][]string{{
		r.Summary.System,
		HumanCount(e.InSystemOnly),
		HumanCount(e.Both),
		HumanCount(e.PFSOnly),
	}}
	return "Table 5: jobs accessing files exclusively per layer\n" +
		table([]string{"System", "In-system only", "Both", "PFS only"}, rows)
}

// Table6 renders files per I/O interface per layer (paper Table 6).
func Table6(r *analysis.Report) string {
	rows := make([][]string, 0, 2)
	for _, lr := range r.Layers {
		rows = append(rows, []string{
			r.Summary.System,
			lr.Layer,
			HumanCount(lr.Stats.InterfaceFiles[darshan.ModulePOSIX]),
			HumanCount(lr.Stats.InterfaceFiles[darshan.ModuleMPIIO]),
			HumanCount(lr.Stats.InterfaceFiles[darshan.ModuleSTDIO]),
		})
	}
	return "Table 6: files per I/O interface\n" +
		table([]string{"System", "Layer", "POSIX", "MPI-IO", "STDIO"}, rows)
}

func cdfRows(labels []string, series map[string][]float64, order []string) [][]string {
	rows := make([][]string, 0, len(labels))
	for i, label := range labels {
		row := []string{label}
		for _, name := range order {
			s := series[name]
			if s == nil || i >= len(s) {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.4f", s[i]))
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func transferBinLabels() []string {
	bins := units.TransferBins()
	labels := make([]string, len(bins))
	for i, b := range bins {
		labels[i] = b.String()
	}
	return labels
}

func requestBinLabels() []string {
	bins := units.RequestBins()
	labels := make([]string, len(bins))
	for i, b := range bins {
		labels[i] = b.String()
	}
	return labels
}

// Figure3 renders the per-file transfer-size CDFs (paper Figure 3) for one
// system: four series (layer × direction) over the transfer bins.
func Figure3(r *analysis.Report) string {
	series := map[string][]float64{}
	var order []string
	for _, lr := range r.Layers {
		for _, d := range []analysis.Direction{analysis.Read, analysis.Write} {
			name := fmt.Sprintf("%s/%s", lr.Layer, d)
			series[name] = r.TransferCDF(lr.Kind, d)
			order = append(order, name)
		}
	}
	return fmt.Sprintf("Figure 3 (%s): CDF of per-file transfer size\n", r.Summary.System) +
		table(append([]string{"bin"}, order...), cdfRows(transferBinLabels(), series, order))
}

// Figure4 renders the request-size CDFs (paper Figure 4); largeOnly renders
// the >1024-process variant (paper Figure 5).
func Figure4(r *analysis.Report, largeOnly bool) string {
	series := map[string][]float64{}
	var order []string
	for _, lr := range r.Layers {
		for _, d := range []analysis.Direction{analysis.Read, analysis.Write} {
			name := fmt.Sprintf("%s/%s", lr.Layer, d)
			series[name] = r.RequestCDF(lr.Kind, d, largeOnly)
			order = append(order, name)
		}
	}
	title := "Figure 4"
	if largeOnly {
		title = "Figure 5 (jobs >1024 procs)"
	}
	return fmt.Sprintf("%s (%s): CDF of request sizes\n", title, r.Summary.System) +
		table(append([]string{"bin"}, order...), cdfRows(requestBinLabels(), series, order))
}

// Figure6 renders the file classification (paper Figure 6); stdioOnly
// renders the STDIO-only variant (paper Figure 8).
func Figure6(r *analysis.Report, stdioOnly bool) string {
	title := "Figure 6: file classification (POSIX+STDIO)"
	if stdioOnly {
		title = "Figure 8: file classification (STDIO only)"
	}
	rows := make([][]string, 0, 6)
	for _, lr := range r.Layers {
		counts := lr.Stats.ClassFiles
		if stdioOnly {
			counts = lr.Stats.StdioClassFiles
		}
		for c := analysis.ReadOnly; c <= analysis.WriteOnly; c++ {
			rows = append(rows, []string{
				lr.Layer, c.String(), HumanCount(counts[c]),
			})
		}
	}
	return fmt.Sprintf("%s (%s)\n", title, r.Summary.System) +
		table([]string{"Layer", "Class", "Files"}, rows)
}

// Figure7 renders in-system usage by science domain (paper Figure 7).
func Figure7(r *analysis.Report) string {
	rows := make([][]string, 0, len(r.Domains))
	for _, d := range r.Domains {
		if d.InSystemBytes[0] == 0 && d.InSystemBytes[1] == 0 {
			continue
		}
		rows = append(rows, []string{
			d.Domain,
			HumanBytes(d.InSystemBytes[0]),
			HumanBytes(d.InSystemBytes[1]),
		})
	}
	return fmt.Sprintf("Figure 7 (%s): in-system layer usage by science domain\n", r.Summary.System) +
		table([]string{"Domain", "Read", "Write"}, rows)
}

// Figure9 renders the per-interface transfer CDFs (paper Figure 9).
func Figure9(r *analysis.Report) string {
	series := map[string][]float64{}
	var order []string
	for _, lr := range r.Layers {
		for _, m := range darshan.InterfaceModules() {
			for _, d := range []analysis.Direction{analysis.Read, analysis.Write} {
				cdf := r.InterfaceTransferCDF(lr.Kind, m, d)
				if cdf == nil {
					continue
				}
				name := fmt.Sprintf("%s/%s/%s", lr.Layer, m, d)
				series[name] = cdf
				order = append(order, name)
			}
		}
	}
	return fmt.Sprintf("Figure 9 (%s): per-interface CDF of per-file transfer size\n", r.Summary.System) +
		table(append([]string{"bin"}, order...), cdfRows(transferBinLabels(), series, order))
}

// Figure10 renders STDIO transfer by science domain (paper Figure 10),
// including the scheduler-join coverage note of §3.3.2.
func Figure10(r *analysis.Report) string {
	rows := make([][]string, 0, len(r.Domains))
	for _, d := range r.Domains {
		if d.StdioBytes[0] == 0 && d.StdioBytes[1] == 0 {
			continue
		}
		rows = append(rows, []string{
			d.Domain,
			HumanBytes(d.StdioBytes[0]),
			HumanBytes(d.StdioBytes[1]),
		})
	}
	return fmt.Sprintf("Figure 10 (%s): STDIO transfer by science domain (STDIO used by %.1f%% of jobs; domain join coverage %.2f%%)\n",
		r.Summary.System, 100*r.StdioJobFraction, 100*r.DomainCoverage) +
		table([]string{"Domain", "Read", "Write"}, rows)
}

// Figure11 renders the shared-file performance boxplots (paper Figures 11
// and 12: Summit and Cori respectively — the same analysis on each system).
func Figure11(r *analysis.Report) string {
	sums := r.PerfSummaries()
	sort.SliceStable(sums, func(i, j int) bool {
		a, b := sums[i], sums[j]
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		if a.Direction != b.Direction {
			return a.Direction < b.Direction
		}
		if a.Interface != b.Interface {
			return a.Interface < b.Interface
		}
		return a.Bin < b.Bin
	})
	rows := make([][]string, 0, len(sums))
	for _, s := range sums {
		rows = append(rows, []string{
			s.Layer, s.Direction.String(), s.Interface.String(), s.Bin.String(),
			fmt.Sprintf("%d", s.Box.N),
			fmt.Sprintf("%.1f", s.Box.Q1),
			fmt.Sprintf("%.1f", s.Box.Median),
			fmt.Sprintf("%.1f", s.Box.Q3),
		})
	}
	return fmt.Sprintf("Figures 11/12 (%s): shared-file performance by interface (MB/s)\n", r.Summary.System) +
		table([]string{"Layer", "Dir", "Iface", "Bin", "N", "Q1", "Median", "Q3"}, rows)
}

// ExtensionSTDIOX renders the extended-STDIO statistics this repository
// adds beyond the paper (Recommendation 4 implemented): the per-request
// STDIO access-size CDF and the static/dynamic write split per layer. It
// reports "(module disabled)" when the campaign ran without the extension,
// which is the paper-faithful default.
func ExtensionSTDIOX(r *analysis.Report) string {
	header := fmt.Sprintf("Extension E1 (%s): process-level STDIO counters (Recommendation 4)\n", r.Summary.System)
	any := false
	for _, lr := range r.Layers {
		for d := 0; d < 2; d++ {
			if lr.Stats.StdioXRequestHist[d].Total() > 0 {
				any = true
			}
		}
	}
	if !any {
		return header + "(STDIOX module disabled for this campaign — run with extended instrumentation)\n"
	}

	series := map[string][]float64{}
	var order []string
	for _, lr := range r.Layers {
		for _, d := range []analysis.Direction{analysis.Read, analysis.Write} {
			name := fmt.Sprintf("%s/%s", lr.Layer, d)
			series[name] = lr.Stats.StdioXRequestHist[d].CDF()
			order = append(order, name)
		}
	}
	out := header +
		table(append([]string{"bin"}, order...), cdfRows(requestBinLabels(), series, order))

	rows := make([][]string, 0, 2)
	for _, lr := range r.Layers {
		rw, uq := lr.Stats.StdioXRewriteBytes, lr.Stats.StdioXUniqueBytes
		frac := 0.0
		if rw+uq > 0 {
			frac = rw / (rw + uq)
		}
		rows = append(rows, []string{
			lr.Layer, HumanBytes(uq), HumanBytes(rw), fmt.Sprintf("%.1f%%", 100*frac),
		})
	}
	out += "\nSTDIO write volume split (static = written once, dynamic = rewritten):\n" +
		table([]string{"Layer", "Static", "Dynamic", "Rewrite share"}, rows)
	return out
}

// Users renders the top users by transferred volume — the user-behavior
// concentration view of Lim et al. [9].
func Users(r *analysis.Report) string {
	rows := make([][]string, 0, len(r.TopUsers))
	for _, u := range r.TopUsers {
		rows = append(rows, []string{
			fmt.Sprintf("%d", u.UserID),
			HumanBytes(u.Bytes),
			HumanCount(u.Files),
		})
	}
	return fmt.Sprintf("User view (%s): top users by volume (top-10 move %.1f%% of all traffic)\n",
		r.Summary.System, 100*r.UserVolumeTop10Share) +
		table([]string{"User", "Bytes", "Files"}, rows)
}

// WhatIf compares a baseline campaign against its Recommendation 2
// counterfactual (middleware aggregation platform-wide): aggregate I/O busy
// time per layer and direction, with the speedup the recommendation buys.
func WhatIf(base, agg *analysis.Report) string {
	rows := make([][]string, 0, 4)
	for li := range base.Layers {
		for _, d := range []analysis.Direction{analysis.Read, analysis.Write} {
			b := base.Layers[li].Stats.IOTime[d]
			a := agg.Layers[li].Stats.IOTime[d]
			speed := "-"
			if a > 0 {
				speed = fmt.Sprintf("%.1fx", b/a)
			}
			rows = append(rows, []string{
				base.Layers[li].Layer, d.String(),
				fmt.Sprintf("%.1f s", b), fmt.Sprintf("%.1f s", a), speed,
			})
		}
	}
	return fmt.Sprintf("What-if (%s): Recommendation 2 applied platform-wide\n", base.Summary.System) +
		table([]string{"Layer", "Dir", "Observed I/O time", "Aggregated", "Speedup"}, rows)
}

// Temporal renders the month-by-month activity series — the seasonality
// view server-side studies report ([11], [19]).
func Temporal(r *analysis.Report) string {
	months := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun",
		"Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	var peak int64
	for _, n := range r.MonthlyLogs {
		if n > peak {
			peak = n
		}
	}
	rows := make([][]string, 0, 12)
	for m, name := range months {
		bar := ""
		if peak > 0 {
			bar = strings.Repeat("#", int(30*r.MonthlyLogs[m]/peak))
		}
		rows = append(rows, []string{
			name,
			HumanCount(r.MonthlyLogs[m]),
			HumanBytes(r.MonthlyBytes[m]),
			bar,
		})
	}
	return fmt.Sprintf("Temporal view (%s): activity by calendar month\n", r.Summary.System) +
		table([]string{"Month", "Logs", "Bytes", "Activity"}, rows)
}

// Tuning renders the I/O tuning-adoption analysis — the paper's §5 future
// work ("how many users tune their I/O in subsequent application
// executions"), answered from the logs alone.
func Tuning(r *analysis.Report) string {
	t := r.Tuning
	pct := func(n int) string {
		if t.UsersBothHalves == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(t.UsersBothHalves))
	}
	rows := [][]string{
		{"users active in both half-years", fmt.Sprintf("%d", t.UsersBothHalves), ""},
		{"adopted wider Lustre striping", fmt.Sprintf("%d", t.AdoptedStriping), pct(t.AdoptedStriping)},
		{"adopted collective MPI-IO", fmt.Sprintf("%d", t.AdoptedCollective), pct(t.AdoptedCollective)},
		{"adopted either", fmt.Sprintf("%d", t.AdoptedAny), pct(t.AdoptedAny)},
	}
	return fmt.Sprintf("Future work (§5, %s): I/O tuning adoption across executions\n", r.Summary.System) +
		table([]string{"Signal", "Users", "Share"}, rows)
}

// ServerStats renders the server-side view of a campaign: per-layer load
// imbalance across NSD servers / OSTs / burst-buffer nodes. This is the
// system-level vantage point of the paper's Table 1 taxonomy, the one
// studies like Shantharam et al. [22] used to diagnose server imbalance.
func ServerStats(system string, collectors map[string]*serverstats.Collector) string {
	names := make([]string, 0, len(collectors))
	for n := range collectors {
		names = append(names, n)
	}
	sort.Strings(names)
	rows := make([][]string, 0, len(names))
	for _, n := range names {
		c := collectors[n]
		bi := c.ByteImbalance()
		ri := c.RequestImbalance()
		rows = append(rows, []string{
			n,
			fmt.Sprintf("%d", c.Servers()),
			fmt.Sprintf("%d", bi.IdleServers),
			HumanBytes(bi.Mean),
			HumanBytes(bi.Max),
			fmt.Sprintf("%.2f", bi.PeakRatio),
			fmt.Sprintf("%.3f", bi.Gini),
			fmt.Sprintf("%.2f", ri.PeakRatio),
			fmt.Sprintf("%.1f s", c.DegradedBusySecs()),
		})
	}
	return fmt.Sprintf("Server-side load (%s): per-server imbalance\n", system) +
		table([]string{"Layer", "Servers", "Idle", "Mean bytes", "Max bytes",
			"Byte peak", "Byte Gini", "Req peak", "Degraded"}, rows)
}

// Faults renders the campaign's fault and retry section: operation failure
// and retry counts, time lost to degraded windows, and request-duration
// tails split by fault state. Returns "" when the report carries no fault
// data.
func Faults(r *analysis.Report) string {
	f := r.Faults
	if f == nil {
		return ""
	}
	secs := func(ns int64) string { return fmt.Sprintf("%.1f s", float64(ns)/1e9) }
	tail := func(t analysis.DurationTail) []string {
		if t.N == 0 {
			return []string{"0", "-", "-", "-", "-"}
		}
		ms := func(v float64) string { return fmt.Sprintf("%.3f ms", v*1e3) }
		return []string{HumanCount(t.N), ms(t.P50), ms(t.P90), ms(t.P99), ms(t.Max)}
	}
	rows := [][]string{
		{"schedule", fmt.Sprintf("seed %d, %d windows, err rate %.2g",
			f.ScheduleSeed, f.Windows, f.TransientErrorRate)},
		{"ops in fault windows", HumanCount(f.DegradedOps)},
		{"ops outside windows", HumanCount(f.CleanOps)},
		{"ops retried", HumanCount(f.OpsRetried)},
		{"retry attempts", HumanCount(f.RetryAttempts)},
		{"ops failed (retries exhausted)", HumanCount(f.OpsFailed)},
		{"job failures (demoted)", fmt.Sprintf("%d %v", f.JobFailures, f.FailedJobs)},
		{"time in degraded windows", secs(f.DegradedNanos)},
		{"est. time lost to faults", secs(f.TimeLostNanos)},
	}
	out := fmt.Sprintf("Fault injection (%s): degradation and retries\n", r.Summary.System) +
		table([]string{"Metric", "Value"}, rows)
	tails := [][]string{
		append([]string{"clean"}, tail(f.Clean)...),
		append([]string{"degraded"}, tail(f.Degraded)...),
	}
	out += "\nRequest-duration tails by fault state\n" +
		table([]string{"State", "Samples", "p50", "p90", "p99", "max"}, tails)
	return out
}

// Everything renders all tables and figures for one system. It is the text
// rendering of the standard section set; call sites that want JSON/CSV or a
// single section should use Render or Section instead.
func Everything(r *analysis.Report) string {
	secs := everythingSections(r)
	parts := make([]string, len(secs))
	for i, sec := range secs {
		parts[i] = sec.Text
	}
	return strings.Join(parts, "\n")
}
