package analysis

import (
	"sort"

	"iolayers/internal/darshan"
	"iolayers/internal/iosim"
	"iolayers/internal/stats"
	"iolayers/internal/units"
)

// Summary reproduces Table 2's per-system row.
type Summary struct {
	System    string
	Logs      int64
	Jobs      int64
	Files     int64
	NodeHours float64
}

// Exclusivity reproduces Table 5's per-system row.
type Exclusivity struct {
	InSystemOnly int64
	Both         int64
	PFSOnly      int64
	// Untracked counts jobs whose logs contained no file records at all;
	// the paper's Table 5 likewise sums to fewer jobs than Table 2.
	Untracked int64
}

// LayerReport is the per-layer slice of the final report.
type LayerReport struct {
	// Layer is the layer's display name (e.g. "Alpine", "SCNL").
	Layer string
	// Kind is PFS or in-system.
	Kind iosim.LayerKind
	// Stats is the full per-layer aggregate.
	Stats *LayerStats
}

// PerfSummary is one boxplot of Figures 11–12: delivered MB/s for one
// (layer, interface, direction, transfer bin) cell.
type PerfSummary struct {
	Layer     string
	Interface darshan.ModuleID
	Direction Direction
	Bin       units.TransferBin
	Box       stats.Summary
}

// DomainReport is one domain's row of Figures 7 and 10.
type DomainReport struct {
	Domain        string
	Jobs          int64
	InSystemBytes [2]float64 // read, write (Figure 7)
	StdioBytes    [2]float64 // read, write (Figure 10)
}

// Report is the complete analysis output for one campaign.
type Report struct {
	Summary Summary
	// Layers lists the PFS first, then the in-system layer.
	Layers [2]LayerReport
	// Exclusivity is the Table 5 row.
	Exclusivity Exclusivity
	// Domains is sorted by name.
	Domains []DomainReport
	// DomainCoverage is the fraction of jobs joinable to a science domain
	// (§3.3.2 reports 90.02% on Cori).
	DomainCoverage float64
	// StdioJobFraction is the fraction of jobs that used STDIO at all
	// (§3.3.2 reports over 62% on Summit).
	StdioJobFraction float64
	// Tuning answers the paper's §5 future-work question: how many users
	// show evidence of tuning their I/O in later executions.
	Tuning TuningAdoption
	// MonthlyLogs and MonthlyBytes are per-calendar-month activity series
	// (January first) — the temporal dimension of [11] and [19].
	MonthlyLogs  [12]int64
	MonthlyBytes [12]float64
	// TopUsers lists the heaviest users by transferred volume, and
	// UserVolumeTop10Share the fraction of all traffic they move — the
	// concentration Lim et al. [9] report on production file systems.
	TopUsers             []UserReport
	UserVolumeTop10Share float64
	// Faults summarizes injected-fault impact; nil when the campaign ran
	// without a fault schedule and saw no job failures.
	Faults *FaultReport
}

// UserReport is one user's row in the top-users view.
type UserReport struct {
	UserID uint64
	Bytes  float64
	Files  int64
}

// Report derives the final report. The aggregator remains usable; Report
// may be called repeatedly as logs accumulate.
func (a *Aggregator) Report() *Report {
	r := &Report{}
	r.Summary = Summary{
		System:    a.sys.Name,
		Logs:      a.logs,
		Jobs:      int64(len(a.jobs)),
		Files:     a.layers[0].Files + a.layers[1].Files,
		NodeHours: a.nodeSeconds / 3600,
	}
	r.Layers[0] = LayerReport{Layer: a.sys.PFS.Name(), Kind: iosim.ParallelFS, Stats: a.layers[0]}
	r.Layers[1] = LayerReport{Layer: a.sys.InSystem.Name(), Kind: iosim.InSystem, Stats: a.layers[1]}

	stdioJobs := int64(0)
	domainJobs := map[string]int64{}
	for _, jv := range a.jobs {
		if jv.domain != "" {
			domainJobs[jv.domain]++
		}
		switch {
		case jv.layers[0] && jv.layers[1]:
			r.Exclusivity.Both++
		case jv.layers[0]:
			r.Exclusivity.PFSOnly++
		case jv.layers[1]:
			r.Exclusivity.InSystemOnly++
		default:
			r.Exclusivity.Untracked++
		}
		if jv.usedStdio {
			stdioJobs++
		}
	}
	if len(a.jobs) > 0 {
		r.StdioJobFraction = float64(stdioJobs) / float64(len(a.jobs))
	}

	names := make([]string, 0, len(a.domains))
	for d := range a.domains {
		names = append(names, d)
	}
	sort.Strings(names)
	for _, d := range names {
		ds := a.domains[d]
		r.Domains = append(r.Domains, DomainReport{
			Domain:        d,
			Jobs:          domainJobs[d],
			InSystemBytes: [2]float64{ds.InSystemBytes[Read], ds.InSystemBytes[Write]},
			StdioBytes:    [2]float64{ds.StdioBytes[Read], ds.StdioBytes[Write]},
		})
	}

	r.Tuning = a.tuningAdoption()
	r.MonthlyLogs = a.monthlyLogs
	r.MonthlyBytes = a.monthlyBytes

	users := make([]UserReport, 0, len(a.userBytes))
	var totalUserBytes float64
	for uid, v := range a.userBytes {
		users = append(users, UserReport{UserID: uid, Bytes: v, Files: a.userFiles[uid]})
		totalUserBytes += v
	}
	sort.Slice(users, func(i, j int) bool {
		if users[i].Bytes != users[j].Bytes {
			return users[i].Bytes > users[j].Bytes
		}
		return users[i].UserID < users[j].UserID
	})
	var top10 float64
	for i, u := range users {
		if i >= 10 {
			break
		}
		top10 += u.Bytes
	}
	if totalUserBytes > 0 {
		r.UserVolumeTop10Share = top10 / totalUserBytes
	}
	if len(users) > 10 {
		users = users[:10]
	}
	r.TopUsers = users

	covered := int64(len(a.domainCovered))
	total := covered
	for id := range a.domainUncovered {
		if !a.domainCovered[id] {
			total++
		}
	}
	if total > 0 {
		r.DomainCoverage = float64(covered) / float64(total)
	}
	return r
}

// PerfSummaries derives the Figure 11/12 boxplots from the report: one
// summary per non-empty (layer, interface, direction, bin) cell, in a
// stable order.
func (r *Report) PerfSummaries() []PerfSummary {
	var out []PerfSummary
	for _, lr := range r.Layers {
		for _, m := range []darshan.ModuleID{darshan.ModulePOSIX, darshan.ModuleSTDIO} {
			cell, ok := lr.Stats.Perf[m]
			if !ok {
				continue
			}
			for d := 0; d < int(numDirections); d++ {
				for b := 0; b < units.NumTransferBins; b++ {
					vals := cell[d][b]
					if len(vals) == 0 {
						continue
					}
					out = append(out, PerfSummary{
						Layer:     lr.Layer,
						Interface: m,
						Direction: Direction(d),
						Bin:       units.TransferBin(b),
						Box:       stats.Summarize(vals),
					})
				}
			}
		}
	}
	return out
}

// TransferCDF returns Figure 3's series for one layer and direction: the
// cumulative fraction of files at or below each transfer bin.
func (r *Report) TransferCDF(kind iosim.LayerKind, d Direction) []float64 {
	return r.Layers[layerIndex(kind)].Stats.TransferHist[d].CDF()
}

// RequestCDF returns Figure 4's series for one layer and direction; with
// largeOnly it returns Figure 5's variant.
func (r *Report) RequestCDF(kind iosim.LayerKind, d Direction, largeOnly bool) []float64 {
	ls := r.Layers[layerIndex(kind)].Stats
	if largeOnly {
		return ls.LargeJobRequestHist[d].CDF()
	}
	return ls.RequestHist[d].CDF()
}

// InterfaceTransferCDF returns Figure 9's series: the per-interface
// transfer-size CDF for one layer and direction, or nil if the interface
// never appeared on the layer.
func (r *Report) InterfaceTransferCDF(kind iosim.LayerKind, m darshan.ModuleID, d Direction) []float64 {
	h, ok := r.Layers[layerIndex(kind)].Stats.InterfaceTransferHist[m]
	if !ok {
		return nil
	}
	return h[d].CDF()
}
