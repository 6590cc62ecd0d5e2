package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meter takes one timed run's wall time, CPU time and peak memory. Every
// figure is reported as measured: the sizing sandbox's speed drifts by
// 15–20% for minutes at a time (README, "Noise"), and the bounds are sized
// for that rather than the figures rescaled.
type meter struct {
	start time.Time
	cpu0  time.Duration
	// resetRSS says the kernel's high-water mark was reset when the run
	// began, so it reads the run's peak and not set-up's.
	resetRSS bool
	// set by finish
	wall    time.Duration
	cpu     time.Duration
	rssPeak float64
}

func startMeter() *meter {
	// "5" resets VmHWM to the current resident set (proc(5)). Where the file
	// is missing or read-only the peak is ru_maxrss, the whole process's.
	reset := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
	return &meter{resetRSS: reset, cpu0: cpuTime(), start: time.Now()}
}

func (m *meter) finish() {
	m.wall = time.Since(m.start)
	m.cpu = cpuTime() - m.cpu0
	if m.resetRSS {
		m.rssPeak = highWaterMB()
	}
	if m.rssPeak == 0 {
		m.rssPeak = maxRSSMB()
	}
}

// answerMetrics fills the end-to-end figures every workload shares from
// the correct answers' latencies. A failed answer has no latency: it is in
// neither lat nor the rate.
func (m *meter) answerMetrics(r *runResult, lat []int64) {
	n := len(lat)
	r.setN("answer_p50_ms", percentile(lat, 0.5)/1e6, n)
	r.setN("answer_tail_ms", percentile(lat, tailPercentile(r.Workload))/1e6, n)
	r.setN("answers_per_s", float64(n)/m.wall.Seconds(), n)
	r.setN("cpu_ms_per_answer", perOp(m.cpu, n, time.Millisecond), n)
	r.set("peak_rss_mb", m.rssPeak)
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is ru_maxrss, which Linux counts in KiB; 0 if the call fails.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// highWaterMB is VmHWM from /proc/self/status; 0 where there is none.
func highWaterMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
