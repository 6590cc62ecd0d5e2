package serve

// wire.go is the service's JSON vocabulary, exported so other layers —
// the cluster router above all — can parse replica responses and rebuild
// documents byte-identically to a single-node render. Everything here is
// shape: field order, tags, and the MarshalDoc framing are the contract.

import (
	"iolayers/internal/httpapi"
	"iolayers/internal/report"
)

// SummaryDoc mirrors analysis.Summary with stable JSON names (the same
// shape report.Document uses).
type SummaryDoc struct {
	System    string  `json:"system"`
	Logs      int64   `json:"logs"`
	Jobs      int64   `json:"jobs"`
	Files     int64   `json:"files"`
	NodeHours float64 `json:"node_hours"`
}

// DatasetRow is one dataset in the /v1/datasets listing.
type DatasetRow struct {
	Name       string     `json:"name"`
	System     string     `json:"system"`
	Generation uint64     `json:"generation"`
	Summary    SummaryDoc `json:"summary"`
	Sources    []string   `json:"sources"`
}

// DatasetsDoc is the /v1/datasets response body.
type DatasetsDoc struct {
	SchemaVersion int          `json:"schema_version"`
	Datasets      []DatasetRow `json:"datasets"`
}

// CompareSideDoc is one dataset's half of a /v1/compare response.
type CompareSideDoc struct {
	Name       string     `json:"name"`
	System     string     `json:"system"`
	Generation uint64     `json:"generation"`
	Summary    SummaryDoc `json:"summary"`
}

// SummaryDeltaDoc is b minus a, fieldwise.
type SummaryDeltaDoc struct {
	Logs      int64   `json:"logs"`
	Jobs      int64   `json:"jobs"`
	Files     int64   `json:"files"`
	NodeHours float64 `json:"node_hours"`
}

// CompareDoc sets two datasets' campaign summaries side by side — the
// cross-system reading the paper's Tables 2–6 are built around.
type CompareDoc struct {
	SchemaVersion int            `json:"schema_version"`
	A             CompareSideDoc `json:"a"`
	B             CompareSideDoc `json:"b"`
	// Delta is b minus a, fieldwise.
	Delta SummaryDeltaDoc `json:"delta"`
}

// summaryOf freezes a snapshot's campaign summary into wire shape.
func summaryOf(snap *Snapshot) SummaryDoc {
	sum := snap.Report.Summary
	return SummaryDoc{
		System: sum.System, Logs: sum.Logs, Jobs: sum.Jobs,
		// Canonicalized for the same reason report.Document does it: the
		// raw sum's last bits are partition-order noise.
		Files: sum.Files, NodeHours: report.CanonicalNodeHours(sum.NodeHours),
	}
}

// RowOf renders one snapshot as its /v1/datasets listing row.
func RowOf(snap *Snapshot) DatasetRow {
	return DatasetRow{
		Name: snap.Name, System: snap.System, Generation: snap.Gen,
		Summary: summaryOf(snap), Sources: snap.Sources,
	}
}

// MarshalDoc frames a wire document exactly as the service writes it:
// the framing both services share, httpapi.MarshalDoc, under the name
// the wire vocabulary's users (the benchmark's oracle, tests) know.
func MarshalDoc(v any) ([]byte, error) { return httpapi.MarshalDoc(v) }

// Compare sets two dataset rows side by side as the /v1/compare
// document — the single constructor both the single-node handler and the
// cluster router's scatter/gather path build from, so a gathered compare
// is byte-identical to a single-node one.
func Compare(a, b DatasetRow) CompareDoc {
	return CompareDoc{
		SchemaVersion: report.SchemaVersion,
		A:             CompareSideDoc{Name: a.Name, System: a.System, Generation: a.Generation, Summary: a.Summary},
		B:             CompareSideDoc{Name: b.Name, System: b.System, Generation: b.Generation, Summary: b.Summary},
		Delta: SummaryDeltaDoc{
			Logs: b.Summary.Logs - a.Summary.Logs, Jobs: b.Summary.Jobs - a.Summary.Jobs,
			Files: b.Summary.Files - a.Summary.Files, NodeHours: b.Summary.NodeHours - a.Summary.NodeHours,
		},
	}
}

// CompareDocument is the /v1/compare body for two dataset rows.
func CompareDocument(a, b DatasetRow) ([]byte, error) { return MarshalDoc(Compare(a, b)) }
