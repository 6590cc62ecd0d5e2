// Package loadtest is an open-loop load generator for the ioserved /
// iorouter HTTP API. Open-loop means arrivals are scheduled on a fixed
// timeline derived from a seeded RNG — a slow server does not slow the
// arrival rate down, it just accumulates latency — which is the only
// honest way to measure a queueing system (a closed loop that waits for
// each response before sending the next one hides every stall behind
// reduced offered load: coordinated omission).
//
// A Scenario declares the offered load: arrival rate, client cap,
// duration, the operation mix (report renders across sections and
// formats, compare scatter/gathers, predict documents, dataset
// listings, periodic ingest bursts), and the API keys to rotate
// through when the target enforces
// multi-tenant rate limits. Scenarios load from a small declarative TOML
// subset (see ParseScenario) or are built in code; either way the same
// seed replays the same arrival schedule and the same operation
// sequence, byte for byte.
package loadtest

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// Op names one operation class in the mix. Ops key the per-endpoint
// latency histograms and the SLO baseline entries, so their names are
// part of the summary-JSON contract.
type Op string

const (
	OpReport   Op = "report"   // GET /v1/report/{dataset}?section&format
	OpCompare  Op = "compare"  // GET /v1/compare/{a}/{b}
	OpPredict  Op = "predict"  // GET /v1/predict/{dataset}
	OpDatasets Op = "datasets" // GET /v1/datasets
	OpIngest   Op = "ingest"   // POST /v1/ingest
)

// Ops lists every operation class in stable order (summary and baseline
// files iterate in this order).
var Ops = []Op{OpReport, OpCompare, OpPredict, OpDatasets, OpIngest}

// Mix holds the relative weight of each operation class. Weights are
// relative, not probabilities — {8,1,1,0} and {0.8,0.1,0.1,0} are the
// same mix. A weight of zero disables the class.
type Mix struct {
	Report   float64 `json:"report"`
	Compare  float64 `json:"compare"`
	Predict  float64 `json:"predict"`
	Datasets float64 `json:"datasets"`
	Ingest   float64 `json:"ingest"`
}

func (m Mix) weight(op Op) float64 {
	switch op {
	case OpReport:
		return m.Report
	case OpCompare:
		return m.Compare
	case OpPredict:
		return m.Predict
	case OpDatasets:
		return m.Datasets
	case OpIngest:
		return m.Ingest
	}
	return 0
}

func (m Mix) total() float64 {
	return m.Report + m.Compare + m.Predict + m.Datasets + m.Ingest
}

// Scenario is one declarative load shape.
type Scenario struct {
	// Name labels the run in summaries and keys the SLO baseline.
	Name string
	// Seed drives every random choice: inter-arrival times, operation
	// picks, section/format/key rotation. Same seed, same schedule.
	Seed uint64
	// Duration is how long arrivals are generated for.
	Duration time.Duration
	// Rate is the offered arrival rate in requests/second (a Poisson
	// process: exponential inter-arrival times).
	Rate float64
	// Clients caps concurrent in-flight requests. An arrival that finds
	// every client busy is counted as shed — never queued, which would
	// quietly turn the open loop into a closed one.
	Clients int
	// Dataset is the dataset queried by report and compare operations.
	Dataset string
	// CompareWith is the second dataset for /v1/compare; empty means
	// compare Dataset against itself (still a real scatter/gather).
	CompareWith string
	// Sections and Formats are rotated through by report operations.
	// Empty slices default to a representative spread.
	Sections []string
	Formats  []string
	// APIKeys, when non-empty, are rotated per request via X-API-Key —
	// this is what exercises the router's per-tenant token buckets.
	APIKeys []string
	// Mix weights the operation classes.
	Mix Mix
	// IngestSource is the corpus path POSTed by ingest operations
	// (required when Mix.Ingest > 0); IngestDataset names the dataset it
	// folds into (defaults to Dataset) and IngestSystem the system
	// profile (defaults to "summit").
	IngestSource  string
	IngestDataset string
	IngestSystem  string
}

// DefaultSections is the report-section spread scenarios get when they
// don't pick their own: the two heaviest tables plus a figure from each
// analysis family.
var DefaultSections = []string{"", "table2", "table4", "figure4", "figure7"}

// DefaultFormats mirrors the serve API's format parameter.
var DefaultFormats = []string{"json", "text", "csv"}

// Validate fills defaults and rejects contradictions. It is called by
// Run, but callers that mutate a parsed scenario may want it earlier.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("loadtest: scenario needs a name")
	}
	if s.Rate <= 0 {
		return fmt.Errorf("loadtest: scenario %q rate %v must be positive", s.Name, s.Rate)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("loadtest: scenario %q duration %v must be positive", s.Name, s.Duration)
	}
	if s.Clients <= 0 {
		return fmt.Errorf("loadtest: scenario %q clients %d must be positive", s.Name, s.Clients)
	}
	if total := s.Mix.total(); total <= 0 || math.IsInf(total, 0) {
		return fmt.Errorf("loadtest: scenario %q mix weights sum to %v, want a positive finite total", s.Name, total)
	}
	for _, w := range []float64{s.Mix.Report, s.Mix.Compare, s.Mix.Predict, s.Mix.Datasets, s.Mix.Ingest} {
		if w < 0 {
			return fmt.Errorf("loadtest: scenario %q has a negative mix weight", s.Name)
		}
	}
	if s.Mix.Ingest > 0 && s.IngestSource == "" {
		return fmt.Errorf("loadtest: scenario %q mixes ingest but sets no ingest_source", s.Name)
	}
	if s.Dataset == "" {
		s.Dataset = "default"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if len(s.Sections) == 0 {
		s.Sections = append([]string(nil), DefaultSections...)
	}
	if len(s.Formats) == 0 {
		s.Formats = append([]string(nil), DefaultFormats...)
	}
	if s.IngestDataset == "" {
		s.IngestDataset = s.Dataset
	}
	if s.IngestSystem == "" {
		s.IngestSystem = "summit"
	}
	return nil
}

// Scale multiplies the offered load — rate and client cap — by f,
// leaving the mix and duration alone. This is how one committed scenario
// serves both the 1k-client CI gate and a 10k-client local soak.
func (s *Scenario) Scale(f float64) error {
	if f <= 0 {
		return fmt.Errorf("loadtest: scale %v must be positive", f)
	}
	s.Rate *= f
	clients := float64(s.Clients) * f
	s.Clients = int(clients)
	if s.Clients < 1 {
		s.Clients = 1
	}
	return nil
}

// ParseScenarioFile reads path with ParseScenario.
func ParseScenarioFile(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("loadtest: %w", err)
	}
	defer f.Close()
	s, err := ParseScenario(f)
	if err != nil {
		return Scenario{}, fmt.Errorf("loadtest: %s: %w", path, err)
	}
	return s, nil
}

// ParseScenario reads a scenario from a small TOML subset — the repo
// takes no dependencies, so this is a hand-rolled reader of exactly the
// shapes scenario files use, not a general TOML parser:
//
//	# comment
//	name = "smoke-1k"          # quoted strings
//	rate = 2000                # numbers (float syntax accepted)
//	clients = 1000
//	duration = "10s"           # durations are quoted Go strings
//	sections = ["", "table2"]  # single-line string arrays
//
//	[mix]                      # the one recognized table
//	report = 8
//	compare = 1
//
// Unknown keys and tables are errors: a typo in a load scenario should
// fail loudly, not silently offer a different load.
func ParseScenario(r io.Reader) (Scenario, error) {
	var s Scenario
	data, err := io.ReadAll(r)
	if err != nil {
		return s, err
	}
	table := ""
	for ln, raw := range strings.Split(string(data), "\n") {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) (Scenario, error) {
			return Scenario{}, fmt.Errorf("line %d: %s", ln+1, fmt.Sprintf(format, args...))
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return fail("malformed table header %q", line)
			}
			table = strings.TrimSpace(line[1 : len(line)-1])
			if table != "mix" {
				return fail("unknown table [%s] (only [mix] exists)", table)
			}
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return fail("expected key = value, got %q", line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if table == "mix" {
			w, err := parseNumber(val)
			if err != nil {
				return fail("mix weight %s: %v", key, err)
			}
			switch key {
			case "report":
				s.Mix.Report = w
			case "compare":
				s.Mix.Compare = w
			case "predict":
				s.Mix.Predict = w
			case "datasets":
				s.Mix.Datasets = w
			case "ingest":
				s.Mix.Ingest = w
			default:
				return fail("unknown mix weight %q", key)
			}
			continue
		}
		var perr error
		switch key {
		case "name":
			s.Name, perr = parseString(val)
		case "seed":
			var n float64
			if n, perr = parseNumber(val); perr == nil {
				if n < 0 || n != float64(uint64(n)) {
					perr = fmt.Errorf("%v is not a whole seed", n)
				} else {
					s.Seed = uint64(n)
				}
			}
		case "duration":
			var str string
			if str, perr = parseString(val); perr == nil {
				s.Duration, perr = time.ParseDuration(str)
			}
		case "rate":
			s.Rate, perr = parseNumber(val)
		case "clients":
			var n float64
			if n, perr = parseNumber(val); perr == nil {
				s.Clients = int(n)
			}
		case "dataset":
			s.Dataset, perr = parseString(val)
		case "compare_with":
			s.CompareWith, perr = parseString(val)
		case "sections":
			s.Sections, perr = parseStringArray(val)
		case "formats":
			s.Formats, perr = parseStringArray(val)
		case "apikeys":
			s.APIKeys, perr = parseStringArray(val)
		case "ingest_source":
			s.IngestSource, perr = parseString(val)
		case "ingest_dataset":
			s.IngestDataset, perr = parseString(val)
		case "ingest_system":
			s.IngestSystem, perr = parseString(val)
		default:
			return fail("unknown key %q", key)
		}
		if perr != nil {
			return fail("%s: %v", key, perr)
		}
	}
	return s, nil
}

// stripComment trims whitespace and a trailing # comment. The # is only
// a comment outside quotes — "a#b" stays intact.
func stripComment(line string) string {
	inString := false
	for i, c := range line {
		switch c {
		case '"':
			inString = !inString
		case '#':
			if !inString {
				return strings.TrimSpace(line[:i])
			}
		}
	}
	return strings.TrimSpace(line)
}

func parseString(val string) (string, error) {
	if len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
		return "", fmt.Errorf("expected a quoted string, got %q", val)
	}
	inner := val[1 : len(val)-1]
	if strings.Contains(inner, `"`) {
		return "", fmt.Errorf("expected one quoted string, got %q", val)
	}
	return inner, nil
}

func parseNumber(val string) (float64, error) {
	n, err := strconv.ParseFloat(val, 64)
	if err != nil || math.IsNaN(n) || math.IsInf(n, 0) {
		return 0, fmt.Errorf("expected a finite number, got %q", val)
	}
	return n, nil
}

func parseStringArray(val string) ([]string, error) {
	if len(val) < 2 || val[0] != '[' || val[len(val)-1] != ']' {
		return nil, fmt.Errorf("expected a [\"...\"] array, got %q", val)
	}
	inner := strings.TrimSpace(val[1 : len(val)-1])
	if inner == "" {
		return []string{}, nil
	}
	var out []string
	for _, part := range strings.Split(inner, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue // tolerate a trailing comma
		}
		s, err := parseString(part)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
