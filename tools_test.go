package bench

import (
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestReadmeToolsTableMatchesCmd is the doc-drift gate for the command-line
// surface: the rows of README.md's Tools table are exactly the directories
// under cmd/. Adding, removing or renaming a binary without updating the
// table fails the build.
func TestReadmeToolsTableMatchesCmd(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "\n## Tools\n")
	if !ok {
		t.Fatal("README.md has no ## Tools section")
	}
	table, _, _ = strings.Cut(table, "\n## ")
	// "| `cmd/iostudy` | End-to-end study: ... |"
	var documented []string
	for _, line := range strings.Split(table, "\n") {
		if name, ok := strings.CutPrefix(line, "| `cmd/"); ok {
			name, _, _ = strings.Cut(name, "`")
			documented = append(documented, name)
		}
	}
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var binaries []string
	for _, e := range entries {
		if e.IsDir() {
			binaries = append(binaries, e.Name())
		}
	}
	sort.Strings(documented)
	if !reflect.DeepEqual(documented, binaries) {
		t.Errorf("README.md's Tools table lists %v, cmd/ holds %v", documented, binaries)
	}
}
