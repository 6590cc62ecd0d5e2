package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"iolayers/internal/serve"
)

// options is one workload run's configuration, straight from the flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// ops, when positive, replaces the clock: a pass runs exactly that many
	// ops, so counts repeat exactly (the determinism tests use it).
	ops int
	// smoke shrinks corpora and fixtures ~200× so the whole harness path
	// runs in a second or two; it is what the tests under bench/ use.
	smoke bool
	// flip, when >= 0, corrupts one byte of that answer's body before the
	// oracle sees it: the self-test that the oracle can fail.
	flip int
	// workRoot is where the run's scratch directory is created.
	workRoot string
	traceOut string
	// callers is the closed-loop client count, min(nproc, 4), which
	// runWorkload sets: the generator opens no more connections and runs no
	// more goroutines, and ingest Workers = callers. It is not a flag, so
	// that every run on one box is comparable with every other.
	callers int
}

// sizing is everything -smoke scales.
type sizing struct {
	jobScale      float64 // batch campaign the corpus is sampled from (workload.Config.JobScale)
	corpusLogs    int     // logs in the batch corpus
	corpusRecords int     // file records in the batch corpus, to within one log
	fixtureLogs   int     // logs per serve dataset
	opListLen     int     // seeded read ops per service workload before the list repeats
	ingestLen     int     // seeded ingest ops before that list repeats
	setups        int     // set-ups per run; setup_s is their median
	warmRounds    int     // serve-churn warm-up ingests per dataset
	storedRounds  int     // serve-churn ingests per dataset, warm-up's included, when the lakes are measured
	cacheBytes    int64   // serve-churn render cache
	probeIters    int     // base iteration count of the per-layer probes
}

// compactCycle is how many ingests into a dataset lie between two of its
// compactions: the lake compacts when a dataset's 16th live commit lands,
// and the compacted base (or the boot ingest) is the first of the next 16.
// storedRounds is one short of a multiple, where a dataset holds its base
// and 14 deltas: the most the lake ever holds, and so the point at which
// its size says most about what one ingest stores.
const compactCycle = serve.DefaultCompactEvery - 1

func (o options) size() sizing {
	if o.smoke {
		return sizing{jobScale: 0.00003, corpusLogs: 40, corpusRecords: 100, fixtureLogs: 12, opListLen: 1 << 10, ingestLen: 1 << 8,
			setups: 1, warmRounds: serve.DefaultCompactEvery + 1, storedRounds: 2*compactCycle - 1, cacheBytes: 8 << 10, probeIters: 20}
	}
	return sizing{jobScale: 0.0012, corpusLogs: 4000, corpusRecords: 12000, fixtureLogs: 500, opListLen: 1 << 16, ingestLen: 1 << 13,
		setups: 5, warmRounds: serve.DefaultCompactEvery + 1, storedRounds: 5*compactCycle - 1, cacheBytes: 64 << 10, probeIters: 400}
}

// more reports whether a pass that has done `done` ops should start
// another.
func (o options) more(done int, deadline time.Time) bool {
	if o.ops > 0 {
		return done < o.ops
	}
	return time.Now().Before(deadline)
}

// runResult is one workload run: what the last stdout line summarizes and
// what -out writes in full.
type runResult struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Smoke     bool    `json:"smoke,omitempty"`
	Callers   int     `json:"callers"`
	OpDigest  string  `json:"op_digest"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Metrics holds every metric this run measured, by name. Samples
	// holds the sample count behind each timing metric.
	Metrics map[string]float64 `json:"metrics"`
	Samples map[string]int     `json:"samples,omitempty"`
	Notes   []string           `json:"notes,omitempty"`

	spans []span
}

func newResult(o options) *runResult {
	return &runResult{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke,
		Callers: o.callers, Metrics: map[string]float64{}, Samples: map[string]int{},
	}
}

func (r *runResult) set(name string, v float64) { r.Metrics[name] = v }

func (r *runResult) setN(name string, v float64, n int) {
	r.Metrics[name] = v
	r.Samples[name] = n
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// contractLine is the JSON object the driver reads off the last line:
// exactly the end-to-end metrics with tracing off, exactly the per-layer
// metrics with it on.
func (r *runResult) contractLine() []byte {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := contractEndToEnd()
	if r.Trace {
		defs = perLayer
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		metrics[d.Name] = mv{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, attempted, r.Failed, metrics})
	return line
}

// print writes every metric by name with its unit, then the contract line.
func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v callers %d op-list digest %s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Callers, r.OpDigest)
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		if n := r.Samples[d.Name]; n > 0 {
			fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", d.Name, v, d.Unit, n)
		} else {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	if r.Trace {
		rows, roots, rootNS := budget(r.spans)
		printBudget(w, r.Workload, rows, roots, rootNS)
	}
	sort.Strings(r.Notes)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "%s\n", r.contractLine())
}

// resultFile is what -all writes and -compare reads.
type resultFile struct {
	Runs []*runResult `json:"runs"`
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
