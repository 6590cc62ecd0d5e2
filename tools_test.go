package bench

import (
	"go/ast"
	"os"
	"path"
	"reflect"
	"regexp"
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

// TestMakeFuzzMatchesTargets is the doc-drift gate for `make fuzz`, the one
// check that only make runs: every Fuzz target outside bench/ has exactly
// one line in the Makefile, and every line names a target that exists, in
// the package that declares it.
func TestMakeFuzzMatchesTargets(t *testing.T) {
	var targets []string
	for _, f := range loadModule(t) {
		if !f.test() || strings.HasPrefix(f.path, "bench/") {
			continue
		}
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				targets = append(targets, fn.Name.Name+" ./"+path.Dir(f.path))
			}
		}
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	// "\t$(GO) test -fuzz=FuzzRead -fuzztime=20s ./internal/darshan/logfmt"
	var lines []string
	for _, m := range regexp.MustCompile(`(?m)-fuzz=(\w+)\s.*\s(\./\S+)\s*$`).FindAllStringSubmatch(string(makefile), -1) {
		lines = append(lines, m[1]+" "+m[2])
	}
	sort.Strings(targets)
	sort.Strings(lines)
	if !reflect.DeepEqual(lines, targets) {
		t.Errorf("make fuzz runs\n\t%s\nthe module's fuzz targets are\n\t%s",
			strings.Join(lines, "\n\t"), strings.Join(targets, "\n\t"))
	}
}
