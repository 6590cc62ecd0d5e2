package loadtest

import (
	"math"
	"strings"
	"testing"
	"time"
)

const sampleScenario = `
# the CI smoke scenario
name = "smoke"          # trailing comments survive
seed = 7
duration = "2s"
rate = 500
clients = 100
dataset = "golden"
compare_with = "golden"
sections = ["", "table2", "figure4"]
formats = ["json", "text"]
apikeys = ["key-a", "key-b"]

[mix]
report = 8
compare = 1
predict = 2
datasets = 1
`

func TestParseScenario(t *testing.T) {
	s, err := ParseScenario(strings.NewReader(sampleScenario))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "smoke" || s.Seed != 7 || s.Rate != 500 || s.Clients != 100 {
		t.Errorf("parsed %+v", s)
	}
	if s.Duration != 2*time.Second {
		t.Errorf("duration %v", s.Duration)
	}
	if len(s.Sections) != 3 || s.Sections[0] != "" || s.Sections[2] != "figure4" {
		t.Errorf("sections %q", s.Sections)
	}
	if len(s.APIKeys) != 2 || s.APIKeys[1] != "key-b" {
		t.Errorf("apikeys %q", s.APIKeys)
	}
	if s.Mix.Report != 8 || s.Mix.Compare != 1 || s.Mix.Predict != 2 || s.Mix.Datasets != 1 || s.Mix.Ingest != 0 {
		t.Errorf("mix %+v", s.Mix)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.IngestDataset != "golden" || s.IngestSystem != "summit" {
		t.Errorf("validate defaults: %+v", s)
	}
}

// scenarioRejects are scenario files ParseScenario refuses, by what is
// wrong with them; FuzzParseScenario starts from them.
var scenarioRejects = map[string]string{
	"unknown key":         `nmae = "typo"`,
	"unknown table":       "[mxi]\nreport = 1",
	"unknown mix weight":  "[mix]\nreprot = 1",
	"unquoted string":     `name = smoke`,
	"bad number":          `rate = fast`,
	"bad duration":        `duration = "10 parsecs"`,
	"bare line":           `just some words`,
	"malformed array":     `sections = ["a", 3]`,
	"unterminated header": `[mix`,
	"fractional seed":     `seed = 1.5`,
	// Non-finite numbers passed Validate: every range check is false for NaN.
	"nan rate":        `rate = nan`,
	"inf rate":        `rate = inf`,
	"nan mix weight":  "[mix]\nreport = nan",
	"inf mix weight":  "[mix]\nreport = +Inf",
	"-inf mix weight": "[mix]\nreport = 1\ncompare = -inf",
}

func TestParseScenarioRejects(t *testing.T) {
	for name, input := range scenarioRejects {
		if _, err := ParseScenario(strings.NewReader(input)); err == nil {
			t.Errorf("%s: %q accepted", name, input)
		}
	}
}

// FuzzParseScenario: no input panics ParseScenario, and a scenario that
// parses and validates has finite values inside their documented ranges.
func FuzzParseScenario(f *testing.F) {
	f.Add(sampleScenario)
	// Whole scenarios with one non-finite number, which reach Validate.
	f.Add(strings.Replace(sampleScenario, "rate = 500", "rate = nan", 1))
	f.Add(strings.Replace(sampleScenario, "report = 8", "report = inf", 1))
	for _, input := range scenarioRejects {
		f.Add(input)
	}
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ParseScenario(strings.NewReader(input))
		if err != nil || s.Validate() != nil {
			return
		}
		m := s.Mix
		total := m.total()
		if !(s.Rate > 0) || math.IsInf(s.Rate, 0) || s.Duration <= 0 || s.Clients <= 0 ||
			!(total > 0) || math.IsInf(total, 0) {
			t.Fatalf("accepted out-of-range scenario %+v", s)
		}
		for _, w := range []float64{m.Report, m.Compare, m.Predict, m.Datasets, m.Ingest} {
			if !(w >= 0) || math.IsInf(w, 0) {
				t.Fatalf("accepted mix weight %v in %+v", w, m)
			}
		}
	})
}

func TestScenarioValidate(t *testing.T) {
	base := func() Scenario {
		return Scenario{Name: "x", Rate: 10, Duration: time.Second, Clients: 4,
			Mix: Mix{Report: 1}}
	}
	if err := (&Scenario{}).Validate(); err == nil {
		t.Error("empty scenario accepted")
	}
	s := base()
	s.Rate = 0
	if err := s.Validate(); err == nil {
		t.Error("zero rate accepted")
	}
	s = base()
	s.Mix = Mix{}
	if err := s.Validate(); err == nil {
		t.Error("all-zero mix accepted")
	}
	s = base()
	s.Mix.Compare = -1
	if err := s.Validate(); err == nil {
		t.Error("negative weight accepted")
	}
	s = base()
	s.Mix.Ingest = 1
	if err := s.Validate(); err == nil {
		t.Error("ingest mix without source accepted")
	}
	s = base()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Seed != 1 || s.Dataset != "default" || len(s.Sections) == 0 || len(s.Formats) == 0 {
		t.Errorf("defaults not filled: %+v", s)
	}
}

func TestScenarioScale(t *testing.T) {
	s := Scenario{Rate: 1000, Clients: 1000}
	if err := s.Scale(0.1); err != nil {
		t.Fatal(err)
	}
	if s.Rate != 100 || s.Clients != 100 {
		t.Errorf("scaled to %+v", s)
	}
	if err := s.Scale(0.001); err != nil {
		t.Fatal(err)
	}
	if s.Clients != 1 {
		t.Errorf("clients floor: %d", s.Clients)
	}
	if err := s.Scale(0); err == nil {
		t.Error("zero scale accepted")
	}
}
