package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"iolayers/internal/analysis"
)

// SchemaVersion identifies the shape of the JSON report document and of
// the service documents that carry the same number (the dataset listing
// and sources, compare, ingest receipt, cluster status). Bump it whenever
// a field is added, removed, or changes meaning so long-lived consumers
// (the ioserved query API, archived smoke-test goldens) can detect drift
// instead of silently misreading a response. Version 2 took the source
// list out of the /v1/datasets row.
const SchemaVersion = 2

// Format selects the output encoding for Render.
type Format string

const (
	FormatText Format = "text"
	FormatJSON Format = "json"
	FormatCSV  Format = "csv"
)

// ParseFormat maps a user-supplied string (flag value, query parameter) to a
// Format. The empty string means FormatText.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "", "text":
		return FormatText, nil
	case "json":
		return FormatJSON, nil
	case "csv":
		return FormatCSV, nil
	default:
		return "", fmt.Errorf("unknown format %q (want text, json, or csv)", s)
	}
}

// Options controls what Render writes.
type Options struct {
	// Format is the output encoding; empty means FormatText.
	Format Format
	// Section restricts output to one named section ("table2", "figure7",
	// "users", ...). Empty or "all" renders every standard section.
	// FormatCSV does not support section selection.
	Section string
}

// ErrNoFaultData is returned when the "faults" section is requested from a
// campaign that ran without fault injection.
var ErrNoFaultData = errors.New("no fault data in this campaign (run with -faults)")

// sectionDef names one renderable slice of the report. The registry is
// ordered: the entries with everything=true, in registry order, are exactly
// the sections Everything concatenates.
type sectionDef struct {
	name       string
	render     func(*analysis.Report) string
	everything bool
}

var sectionDefs = []sectionDef{
	{"table2", func(r *analysis.Report) string { return Table2(r) }, true},
	{"table3", Table3, true},
	{"table4", Table4, true},
	{"table5", Table5, true},
	{"table6", Table6, true},
	{"figure3", Figure3, true},
	{"figure4", func(r *analysis.Report) string { return Figure4(r, false) }, true},
	{"figure5", func(r *analysis.Report) string { return Figure4(r, true) }, true},
	{"figure6", func(r *analysis.Report) string { return Figure6(r, false) }, true},
	{"figure7", Figure7, true},
	{"figure8", func(r *analysis.Report) string { return Figure6(r, true) }, true},
	{"figure9", Figure9, true},
	{"figure10", Figure10, true},
	{"figure11", Figure11, true},
	{"faults", Faults, false}, // appended to Everything only when non-empty
	{"extension", ExtensionSTDIOX, false},
	{"tuning", Tuning, false},
	{"temporal", Temporal, false},
	{"users", Users, false},
	{"predict", Predict, false},
}

// sectionAliases maps historical experiment names from iostudy onto
// canonical section names.
var sectionAliases = map[string]string{
	"figure12": "figure11",
	"e1":       "extension",
}

// CanonicalSection resolves aliases and case so callers can compare or cache
// by section name. Unknown names are returned unchanged.
func CanonicalSection(name string) string {
	n := strings.ToLower(strings.TrimSpace(name))
	if alias, ok := sectionAliases[n]; ok {
		return alias
	}
	return n
}

// SectionNames lists every renderable section in registry order.
func SectionNames() []string {
	names := make([]string, len(sectionDefs))
	for i, d := range sectionDefs {
		names[i] = d.name
	}
	return names
}

func findSection(name string) (sectionDef, bool) {
	n := CanonicalSection(name)
	for _, d := range sectionDefs {
		if d.name == n {
			return d, true
		}
	}
	return sectionDef{}, false
}

// Section renders one named section ("all" for everything). It is the single
// lookup behind iostudy experiments and ioserved's ?section= parameter.
func Section(r *analysis.Report, name string) (string, error) {
	if n := CanonicalSection(name); n == "" || n == "all" {
		return Everything(r), nil
	}
	d, ok := findSection(name)
	if !ok {
		return "", fmt.Errorf("unknown section %q", name)
	}
	s := d.render(r)
	if d.name == "faults" && s == "" {
		return "", ErrNoFaultData
	}
	return s, nil
}

// CanonicalNodeHours rounds an accumulated node-hour sum to microhour
// precision for serialization. Float summation is not associative, so the
// raw sum's trailing bits depend on how the campaign was partitioned
// across workers; the text tables round far coarser and never leak that,
// and JSON documents must not either — byte-identical reports at any
// -workers value is a stated guarantee.
func CanonicalNodeHours(h float64) float64 { return math.Round(h*1e6) / 1e6 }

// renderedSection is one entry of the JSON document's sections array.
type renderedSection struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// jsonSummary mirrors analysis.Summary with stable, explicit JSON names.
type jsonSummary struct {
	System    string  `json:"system"`
	Logs      int64   `json:"logs"`
	Jobs      int64   `json:"jobs"`
	Files     int64   `json:"files"`
	NodeHours float64 `json:"node_hours"`
}

// Document is the versioned JSON report envelope. Field order is fixed by
// the struct, and Render marshals with deterministic indentation, so the
// same report always yields the same bytes — a property ioserved's cache and
// the byte diffs in cmd/ioserved's process tests both rely on.
type Document struct {
	SchemaVersion int               `json:"schema_version"`
	System        string            `json:"system"`
	Section       string            `json:"section,omitempty"`
	Summary       jsonSummary       `json:"summary"`
	Sections      []renderedSection `json:"sections"`
}

// everythingSections renders the standard section list in Everything order,
// appending faults only when the campaign recorded fault data.
func everythingSections(r *analysis.Report) []renderedSection {
	var out []renderedSection
	for _, d := range sectionDefs {
		if !d.everything {
			continue
		}
		out = append(out, renderedSection{Name: d.name, Text: d.render(r)})
	}
	if s := Faults(r); s != "" {
		out = append(out, renderedSection{Name: "faults", Text: s})
	}
	return out
}

// BuildDocument assembles the versioned JSON document for a report, either
// the full standard set (section == "" or "all") or one named section.
func BuildDocument(r *analysis.Report, section string) (*Document, error) {
	doc := &Document{
		SchemaVersion: SchemaVersion,
		System:        r.Summary.System,
		Summary: jsonSummary{
			System:    r.Summary.System,
			Logs:      r.Summary.Logs,
			Jobs:      r.Summary.Jobs,
			Files:     r.Summary.Files,
			NodeHours: CanonicalNodeHours(r.Summary.NodeHours),
		},
	}
	n := CanonicalSection(section)
	if n == "" || n == "all" {
		doc.Sections = everythingSections(r)
		return doc, nil
	}
	text, err := Section(r, n)
	if err != nil {
		return nil, err
	}
	doc.Section = n
	doc.Sections = []renderedSection{{Name: n, Text: text}}
	return doc, nil
}

// Render writes the report to w in the requested format. Output is a pure
// function of (report, options): rendering never mutates the report, and
// identical inputs produce identical bytes.
func Render(w io.Writer, r *analysis.Report, opts Options) error {
	format := opts.Format
	if format == "" {
		format = FormatText
	}
	switch format {
	case FormatText:
		s, err := Section(r, opts.Section)
		if err != nil {
			return err
		}
		if !strings.HasSuffix(s, "\n") {
			s += "\n"
		}
		_, err = io.WriteString(w, s)
		return err
	case FormatJSON:
		doc, err := BuildDocument(r, opts.Section)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		_, err = w.Write(data)
		return err
	case FormatCSV:
		if n := CanonicalSection(opts.Section); n != "" && n != "all" {
			return fmt.Errorf("csv format does not support section selection (got %q)", opts.Section)
		}
		_, err := io.WriteString(w, CSV(r))
		return err
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

// RenderString is Render into a string, for call sites that still build
// output in memory.
func RenderString(r *analysis.Report, opts Options) (string, error) {
	var b strings.Builder
	if err := Render(&b, r, opts); err != nil {
		return "", err
	}
	return b.String(), nil
}
