package bench

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// lintRule is one structural invariant of the tree, stated as data: the
// directories it covers, the files inside them it exempts, and the
// constructs it forbids there. A rule matches parsed code, never comments
// or string contents, except where a pattern names a string literal.
type lintRule struct {
	name  string
	why   string
	dirs  []string // module-relative directories, subdirectories included; "." is the whole tree
	tests bool     // also check _test.go files
	allow []string // exempt files, or directories when they end in "/"
	// forbid holds patterns written as the Go text they forbid:
	//
	//	import "encoding/gob"  an import of that path
	//	os.Rename(             a call of os.Rename, the package found through the file's imports
	//	.HandleFunc(           a call of any function or method named HandleFunc
	//	fmt.Fprintf(w          such a call with the identifier w in its arguments
	//	.HasSuffix(".dgc"      such a call with the string literal ".dgc" in its arguments
	//	sync.WaitGroup         any use of that qualified name
	//	== logfmt.Magic        an ==, != or bytes.Equal with that name, or a slice or
	//	                       conversion of it, as an operand
	//	.Counters[             an index or slice of a field or package member named Counters
	//	type modView           a type declared with that name
	//	go                     a go statement
	//	make(chan              a make of a channel
	//	gofmt                  a file go/format.Source would change
	forbid []string
}

var lintRules = []lintRule{
	{
		name:   "gofmt",
		why:    "not gofmt-clean (run gofmt -w)",
		dirs:   []string{"."},
		tests:  true,
		forbid: []string{"gofmt"},
	},
	{
		// Test files may fake misbehaving upstreams however they like.
		name:   "apilint",
		why:    "error bodies go through the internal/httpapi envelope, and a route exists only as a row of the service's httpapi.Table (a hand-registered route is missing from GET /v1)",
		dirs:   []string{"internal/serve", "internal/cluster"},
		forbid: []string{"http.Error(", "fmt.Fprint(w", "fmt.Fprintf(w", "fmt.Fprintln(w", ".HandleFunc(", ".Handle("},
	},
	{
		// The two format packages check their own headers.
		name:   "ingestlint/kind",
		why:    "what kind of source a path is gets decided in one place, core.Open (call core.Ingest/core.Convert with the path)",
		dirs:   []string{"internal", "cmd"},
		allow:  []string{"internal/core/source.go", "internal/darshan/logfmt/", "internal/darshan/colfmt/"},
		forbid: []string{".SniffFile(", `.HasSuffix(".dgc"`, `.HasSuffix(".dgar"`, "== logfmt.Magic", "== logfmt.ArchiveMagic", "== colfmt.Magic"},
	},
	{
		name:   "ingestlint/driver",
		why:    "there is one driver: make the work a source behind ingestCoordinator in internal/core/ingest.go",
		dirs:   []string{"internal/core"},
		allow:  []string{"internal/core/ingest.go"},
		forbid: []string{"go", "sync.WaitGroup", "checkpoint.Save("},
	},
	{
		name:   "ingestlint/channel",
		why:    "the ingest workers pull their items from the source under one lock; a channel is a dispatcher growing back",
		dirs:   []string{"internal/core"},
		forbid: []string{"make(chan"},
	},
	{
		name:   "durablelint",
		why:    "there is one durable file format and one atomic file replacement (use checkpoint.Save/Journal and checkpoint.CreateAtomic)",
		dirs:   []string{"internal", "cmd", "bench"},
		allow:  []string{"internal/checkpoint/"},
		forbid: []string{`import "encoding/gob"`, "os.CreateTemp("},
	},
	{
		// The quarantine move in ingest.go moves a file aside rather than
		// committing one.
		name:   "durablelint/rename",
		why:    "an atomic file replacement outside internal/checkpoint (use checkpoint.CreateAtomic)",
		dirs:   []string{"internal", "cmd", "bench"},
		allow:  []string{"internal/checkpoint/", "internal/core/ingest.go"},
		forbid: []string{"os.Rename("},
	},
	{
		// Attempt and probe deadlines are context deadlines on wall time.
		name:   "clocklint",
		why:    "the router reads time through its Clock (Config.Clock), so a fake clock drives every breaker, backoff and probe cadence",
		dirs:   []string{"internal/cluster"},
		allow:  []string{"internal/cluster/clock.go"},
		forbid: []string{"time.Now", "time.Since", "time.Sleep", "time.After", "time.AfterFunc", "time.NewTimer", "time.NewTicker"},
	},
	{
		name:   "foldlint",
		why:    "a log's records are grouped per file in one place, darshan.Grouper (consume darshan.LogRows)",
		dirs:   []string{"internal/analysis", "internal/darshan/colfmt", "internal/predict", "internal/core"},
		forbid: []string{".Counters[", ".FCounters["},
	},
	{
		name:   "foldlint/views",
		why:    "a per-module view type is a second grouping growing back (consume darshan.LogRows)",
		dirs:   []string{"."},
		tests:  true,
		forbid: []string{"type modView", "type fileView"},
	},
}

// srcFile is one parsed Go file; path is module-relative and slash-separated.
type srcFile struct {
	path string
	src  []byte
	fset *token.FileSet
	ast  *ast.File
}

func (f *srcFile) test() bool { return strings.HasSuffix(f.path, "_test.go") }

func parseSrc(p string, src []byte) (*srcFile, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return &srcFile{path: p, src: src, fset: fset, ast: file}, nil
}

var (
	moduleOnce  sync.Once
	moduleFiles []*srcFile
	moduleErr   error
)

// loadModule parses every Go file the go tool would see, once per process.
func loadModule(t *testing.T) []*srcFile {
	t.Helper()
	moduleOnce.Do(func() {
		moduleErr = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
				return nil
			}
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			f, err := parseSrc(filepath.ToSlash(p), src)
			if err != nil {
				return err
			}
			moduleFiles = append(moduleFiles, f)
			return nil
		})
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleFiles
}

func (r lintRule) covers(f *srcFile) bool {
	if f.test() && !r.tests {
		return false
	}
	for _, a := range r.allow {
		if f.path == a || (strings.HasSuffix(a, "/") && strings.HasPrefix(f.path, a)) {
			return false
		}
	}
	for _, d := range r.dirs {
		if d == "." || strings.HasPrefix(f.path, d+"/") {
			return true
		}
	}
	return false
}

// check returns one "path:line: rule: pattern" finding per violation.
func (r lintRule) check(files []*srcFile) []string {
	var out []string
	for _, f := range files {
		if !r.covers(f) {
			continue
		}
		for _, p := range r.forbid {
			for _, line := range matchLines(f, p) {
				out = append(out, fmt.Sprintf("%s:%d: %s: %s — %s", f.path, line, r.name, p, r.why))
			}
		}
	}
	return out
}

// matchLines returns the lines of f where pattern p (see lintRule.forbid)
// occurs.
func matchLines(f *srcFile, p string) []int {
	if p == "gofmt" {
		if out, err := format.Source(f.src); err != nil || !bytes.Equal(out, f.src) {
			return []int{1}
		}
		return nil
	}
	imports := map[string]string{} // local name → import path
	for _, im := range f.ast.Imports {
		ip, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(ip)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = ip
	}
	// qualified reports whether e is pkg.name, pkg matched against the
	// final elements of the import path; pkg "" accepts any receiver and
	// an unqualified name.
	qualified := func(e ast.Expr, pkg, name string) bool {
		switch e := e.(type) {
		case *ast.Ident:
			return pkg == "" && e.Name == name
		case *ast.SelectorExpr:
			if e.Sel.Name != name {
				return false
			}
			if pkg == "" {
				return true
			}
			x, ok := e.X.(*ast.Ident)
			if !ok {
				return false
			}
			ip := imports[x.Name]
			return ip == pkg || strings.HasSuffix(ip, "/"+pkg)
		}
		return false
	}
	split := func(s string) (pkg, name string) {
		if i := strings.LastIndex(s, "."); i >= 0 {
			return s[:i], s[i+1:]
		}
		return "", s
	}

	var match func(ast.Node) bool
	switch {
	case strings.HasPrefix(p, "import "):
		want := strings.TrimPrefix(p, "import ")
		match = func(n ast.Node) bool {
			im, ok := n.(*ast.ImportSpec)
			return ok && im.Path.Value == want
		}
	case strings.HasPrefix(p, "type "):
		want := strings.TrimPrefix(p, "type ")
		match = func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			return ok && ts.Name.Name == want
		}
	case strings.HasPrefix(p, "== "):
		pkg, name := split(strings.TrimPrefix(p, "== "))
		operand := func(e ast.Expr) bool {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
					continue
				case *ast.SliceExpr:
					e = x.X
					continue
				case *ast.CallExpr: // a conversion such as string(m[:])
					if len(x.Args) == 1 {
						e = x.Args[0]
						continue
					}
				}
				return qualified(e, pkg, name)
			}
		}
		match = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				return (n.Op == token.EQL || n.Op == token.NEQ) && (operand(n.X) || operand(n.Y))
			case *ast.CallExpr:
				return qualified(n.Fun, "bytes", "Equal") && len(n.Args) == 2 && (operand(n.Args[0]) || operand(n.Args[1]))
			}
			return false
		}
	case p == "go":
		match = func(n ast.Node) bool { _, ok := n.(*ast.GoStmt); return ok }
	case p == "make(chan":
		match = func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok || len(c.Args) == 0 || !qualified(c.Fun, "", "make") {
				return false
			}
			_, isChan := c.Args[0].(*ast.ChanType)
			return isChan
		}
	case strings.HasSuffix(p, "["):
		_, name := split(strings.TrimSuffix(p, "["))
		match = func(n ast.Node) bool {
			var x ast.Expr
			switch n := n.(type) {
			case *ast.IndexExpr:
				x = n.X
			case *ast.SliceExpr:
				x = n.X
			}
			sel, ok := x.(*ast.SelectorExpr)
			return ok && sel.Sel.Name == name
		}
	case strings.Contains(p, "("):
		callee, arg, _ := strings.Cut(p, "(")
		pkg, name := split(callee)
		match = func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok || !qualified(c.Fun, pkg, name) {
				return false
			}
			if arg == "" {
				return true
			}
			found := false
			for _, a := range c.Args {
				ast.Inspect(a, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						found = found || n.Name == arg
					case *ast.BasicLit:
						found = found || (n.Kind == token.STRING && n.Value == arg)
					}
					return !found
				})
			}
			return found
		}
	default:
		pkg, name := split(p)
		match = func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			return ok && qualified(sel, pkg, name)
		}
	}

	var lines []int
	ast.Inspect(f.ast, func(n ast.Node) bool {
		if n != nil && match(n) {
			lines = append(lines, f.fset.Position(n.Pos()).Line)
		}
		return true
	})
	return lines
}

// TestLintRules holds the whole tree to lintRules.
func TestLintRules(t *testing.T) {
	files := loadModule(t)
	for _, r := range lintRules {
		for _, finding := range r.check(files) {
			t.Error(finding)
		}
	}
}

type snippet struct{ path, src string }

// lintCases pins each rule's meaning: every bad snippet is reported, no
// good one is, and the good ones include each forbidden text inside a
// comment and inside a string.
var lintCases = map[string]struct{ bad, good []snippet }{
	"gofmt": {
		bad: []snippet{{"internal/x/x.go", "package x\nfunc  f() {}\n"}},
		good: []snippet{
			{"internal/x/x.go", "package x\n\n// func  f() {}\nfunc f() {}\n"},
			{"internal/x/x_test.go", "package x\n\nvar s = \"func  f() {}\"\n"},
		},
	},
	"apilint": {
		bad: []snippet{
			{"internal/serve/x.go", "package serve\n\nimport \"net/http\"\n\nfunc f(w http.ResponseWriter) { http.Error(w, \"x\", 500) }\n"},
			{"internal/cluster/sub/x.go", "package sub\n\nimport \"fmt\"\n\nfunc f(w any) { fmt.Fprintf(w, \"x\") }\n"},
			{"internal/serve/x.go", "package serve\n\nimport \"fmt\"\n\nfunc f(w any) { fmt.Fprintln(w) }\n"},
			{"internal/cluster/x.go", "package cluster\n\nfunc f(mux any) { mux.HandleFunc(\"/\", nil) }\n"},
			{"internal/cluster/x.go", "package cluster\n\nfunc f(mux any) { mux.Handle(\"/\", nil) }\n"},
		},
		good: []snippet{
			{"internal/serve/x.go", "package serve\n\n// http.Error(w, \"x\", 500) and mux.HandleFunc( are banned\nvar s = \"fmt.Fprintf(w, x) mux.Handle(\"\n"},
			{"internal/serve/x_test.go", "package serve\n\nimport \"net/http\"\n\nfunc f(w http.ResponseWriter) { http.Error(w, \"x\", 500) }\n"},
			{"internal/serve/x.go", "package serve\n\nimport \"fmt\"\n\nfunc f(b any) { fmt.Fprintf(b, \"w\") }\n"},
			{"internal/httpapi/x.go", "package httpapi\n\nimport \"net/http\"\n\nfunc f(w http.ResponseWriter) { http.Error(w, \"x\", 500) }\n"},
		},
	},
	"ingestlint/kind": {
		bad: []snippet{
			{"cmd/x/x.go", "package main\n\nimport \"iolayers/internal/darshan/logfmt\"\n\nfunc f() { logfmt.SniffFile(\"p\") }\n"},
			{"internal/serve/x.go", "package serve\n\nimport \"strings\"\n\nfunc f(p string) bool { return strings.HasSuffix(p, \".dgc\") }\n"},
			{"cmd/x/x.go", "package main\n\nimport \"strings\"\n\nfunc f(p string) bool { return strings.HasSuffix(strings.ToLower(p), \".dgc\") }\n"},
			{"cmd/x/x.go", "package main\n\nimport \"bytes\"\n\nfunc f(p []byte) bool { return bytes.HasSuffix(p, []byte(\".dgar\")) }\n"},
			{"internal/core/x.go", "package core\n\nimport \"iolayers/internal/darshan/logfmt\"\n\nfunc f(b [4]byte) bool { return b == logfmt.Magic }\n"},
			{"internal/core/x.go", "package core\n\nimport lf \"iolayers/internal/darshan/logfmt\"\n\nfunc f(b [4]byte) bool { return lf.ArchiveMagic != b }\n"},
			{"internal/core/x.go", "package core\n\nimport \"iolayers/internal/darshan/colfmt\"\n\nfunc f(b string) bool { return string(colfmt.Magic[:]) == b }\n"},
			{"cmd/x/x.go", "package main\n\nimport (\n\t\"bytes\"\n\n\t\"iolayers/internal/darshan/logfmt\"\n)\n\nfunc f(b []byte) bool { return bytes.Equal(b[:4], logfmt.Magic[:]) }\n"},
		},
		good: []snippet{
			{"internal/core/x.go", "package core\n\n// SniffFile(p) or b == logfmt.Magic would be a second dispatcher\nvar s = \"strings.HasSuffix(p, \\\".dgc\\\")\"\n"},
			{"internal/core/source.go", "package core\n\nimport \"iolayers/internal/darshan/logfmt\"\n\nfunc f(b [4]byte) bool { return b == logfmt.Magic }\n"},
			{"internal/darshan/colfmt/x.go", "package colfmt\n\nfunc f(b [4]byte) bool { return b == Magic }\n"},
			{"internal/core/x_test.go", "package core\n\nimport \"strings\"\n\nfunc f(p string) bool { return strings.HasSuffix(p, \".dgc\") }\n"},
			{"internal/core/x.go", "package core\n\nimport \"strings\"\n\nfunc f(p string) bool { return strings.HasSuffix(p, \".darshan\") }\n"},
		},
	},
	"ingestlint/driver": {
		bad: []snippet{
			{"internal/core/x.go", "package core\n\nfunc f() { go func() {}() }\n"},
			{"internal/core/x.go", "package core\n\nfunc f(g func()) { go g() }\n"},
			{"internal/core/x.go", "package core\n\nimport \"sync\"\n\nvar wg sync.WaitGroup\n"},
			{"internal/core/x.go", "package core\n\nimport \"iolayers/internal/checkpoint\"\n\nfunc f() { checkpoint.Save(\"p\", nil) }\n"},
		},
		good: []snippet{
			{"internal/core/ingest.go", "package core\n\nimport \"sync\"\n\nfunc f() { var wg sync.WaitGroup; go func() {}(); wg.Wait() }\n"},
			{"internal/core/x.go", "package core\n\n// go func() { sync.WaitGroup; checkpoint.Save( }\nvar s = \"go func() { var wg sync.WaitGroup }()\"\n"},
			{"internal/core/x_test.go", "package core\n\nfunc f() { go func() {}() }\n"},
			{"internal/serve/x.go", "package serve\n\nfunc f() { go func() {}() }\n"},
		},
	},
	"ingestlint/channel": {
		bad: []snippet{
			{"internal/core/ingest.go", "package core\n\nvar c = make(chan int)\n"},
			{"internal/core/x.go", "package core\n\nvar c = make(chan<- struct{}, 1)\n"},
		},
		good: []snippet{
			{"internal/core/x.go", "package core\n\n// make(chan int)\nvar s, c = \"make(chan int)\", make([]chan int, 1)\n"},
			{"internal/core/x_test.go", "package core\n\nvar c = make(chan int)\n"},
		},
	},
	"durablelint": {
		bad: []snippet{
			{"internal/serve/x.go", "package serve\n\nimport _ \"encoding/gob\"\n"},
			{"cmd/x/x.go", "package main\n\nimport \"os\"\n\nfunc f() { os.CreateTemp(\"\", \"x\") }\n"},
			{"bench/x.go", "package main\n\nimport \"os\"\n\nfunc f() { os.CreateTemp(\"\", \"x\") }\n"},
			{"internal/core/ingest.go", "package core\n\nimport \"encoding/gob\"\n\nvar _ = gob.NewEncoder\n"},
		},
		good: []snippet{
			{"internal/checkpoint/x.go", "package checkpoint\n\nimport (\n\t\"encoding/gob\"\n\t\"os\"\n)\n\nvar _, _ = gob.NewEncoder, os.CreateTemp\n"},
			{"internal/serve/x.go", "package serve\n\n// import \"encoding/gob\"; os.CreateTemp(\nvar s = `\"encoding/gob\" os.CreateTemp(`\n"},
			{"internal/serve/x_test.go", "package serve\n\nimport \"os\"\n\nfunc f() { os.CreateTemp(\"\", \"x\") }\n"},
		},
	},
	"durablelint/rename": {
		bad: []snippet{
			{"internal/serve/x.go", "package serve\n\nimport \"os\"\n\nfunc f() { os.Rename(\"a\", \"b\") }\n"},
			{"internal/core/source.go", "package core\n\nimport \"os\"\n\nfunc f() { os.Rename(\"a\", \"b\") }\n"},
		},
		good: []snippet{
			{"internal/core/ingest.go", "package core\n\nimport \"os\"\n\nfunc f() { os.Rename(\"a\", \"b\") }\n"},
			{"internal/checkpoint/x.go", "package checkpoint\n\nimport \"os\"\n\nfunc f() { os.Rename(\"a\", \"b\") }\n"},
			{"internal/serve/x.go", "package serve\n\n// os.Rename(a, b)\nvar s = \"os.Rename(a, b)\"\n"},
			{"internal/serve/x.go", "package serve\n\nfunc f(fs interface{ Rename(a, b string) }) { fs.Rename(\"a\", \"b\") }\n"},
		},
	},
	"clocklint": {
		bad: []snippet{
			{"internal/cluster/router.go", "package cluster\n\nimport \"time\"\n\nfunc f() { time.NewTimer(time.Second) }\n"},
			{"internal/cluster/x.go", "package cluster\n\nimport \"time\"\n\nvar now = time.Now\n"},
			{"internal/cluster/x.go", "package cluster\n\nimport \"time\"\n\nfunc f(t time.Time) time.Duration { return time.Since(t) }\n"},
			{"internal/cluster/x.go", "package cluster\n\nimport \"time\"\n\nfunc f() { <-time.After(1); time.AfterFunc(1, nil) }\n"},
			{"internal/cluster/x.go", "package cluster\n\nimport clk \"time\"\n\nfunc f() { clk.Sleep(1) }\n"},
			{"internal/cluster/sub/x.go", "package sub\n\nimport \"time\"\n\nvar t = time.NewTicker(time.Millisecond)\n"},
		},
		good: []snippet{
			{"internal/cluster/clock.go", "package cluster\n\nimport \"time\"\n\nfunc f() { time.Now(); time.After(1) }\n"},
			{"internal/cluster/x_test.go", "package cluster\n\nimport \"time\"\n\nfunc f() { time.Sleep(1) }\n"},
			{"internal/cluster/x.go", "package cluster\n\n// time.Now() and time.NewTimer(d)\nvar s = \"time.Sleep(1)\"\n"},
			{"internal/cluster/x.go", "package cluster\n\nimport (\n\t\"context\"\n\t\"time\"\n)\n\nfunc f(c interface{ Now() time.Time }) { c.Now(); context.WithTimeout(context.Background(), time.Second) }\n"},
			{"internal/serve/x.go", "package serve\n\nimport \"time\"\n\nvar now = time.Now\n"},
		},
	},
	"foldlint": {
		bad: []snippet{
			{"internal/analysis/x.go", "package analysis\n\nfunc f(r struct{ Counters []int64 }) int64 { return r.Counters[0] }\n"},
			{"internal/predict/x.go", "package predict\n\nfunc f(r struct{ FCounters []float64 }) float64 { return r.FCounters[1] }\n"},
			{"internal/core/x.go", "package core\n\nfunc f(r struct{ Counters []int64 }) []int64 { return r.Counters[2:] }\n"},
		},
		good: []snippet{
			{"internal/analysis/x.go", "package analysis\n\n// r.Counters[0]\nvar s = \"r.FCounters[1]\"\n"},
			{"internal/analysis/x_test.go", "package analysis\n\nfunc f(r struct{ Counters []int64 }) int64 { return r.Counters[0] }\n"},
			{"internal/darshan/x.go", "package darshan\n\nfunc f(r struct{ Counters []int64 }) int64 { return r.Counters[0] }\n"},
		},
	},
	"foldlint/views": {
		bad: []snippet{
			{"internal/analysis/x_test.go", "package analysis\n\ntype modView struct{}\n"},
			{"cmd/x/x.go", "package main\n\nfunc f() { type fileView int }\n"},
		},
		good: []snippet{
			{"internal/analysis/x.go", "package analysis\n\n// type modView struct{}\nvar s = \"type fileView struct{}\"\n\ntype modViews struct{}\n"},
		},
	},
}

func parseSnippets(t *testing.T, ss []snippet) []*srcFile {
	t.Helper()
	var out []*srcFile
	for _, s := range ss {
		f, err := parseSrc(s.path, []byte(s.src))
		if err != nil {
			t.Fatalf("%s: %v", s.path, err)
		}
		out = append(out, f)
	}
	return out
}

func TestLintRuleCases(t *testing.T) {
	for _, r := range lintRules {
		cases, ok := lintCases[r.name]
		if !ok || len(cases.bad) == 0 || len(cases.good) == 0 {
			t.Errorf("rule %s has no bad and good cases", r.name)
			continue
		}
		for i, f := range parseSnippets(t, cases.bad) {
			if got := r.check([]*srcFile{f}); len(got) == 0 {
				t.Errorf("%s: bad case %d (%s) not reported:\n%s", r.name, i, f.path, f.src)
			}
		}
		for i, f := range parseSnippets(t, cases.good) {
			if got := r.check([]*srcFile{f}); len(got) != 0 {
				t.Errorf("%s: good case %d reported: %v", r.name, i, got)
			}
		}
	}
}

// unusedExports returns the exported top-level funcs, types, vars and consts
// declared in non-test code under internal/ that nothing uses: a use is a
// reference from non-test code anywhere in the module, or from a test file
// in another directory. In a parenthesised const block, the names of one
// named type are one name, used when any of them is. module is the module
// path from go.mod.
func unusedExports(module string, files []*srcFile) []string {
	type name struct{ dir, id string }
	group := map[name]name{} // declared name → the name its block is known by
	where := map[name]string{}
	for _, f := range files {
		if f.test() || !strings.HasPrefix(f.path, "internal/") {
			continue
		}
		dir := path.Dir(f.path)
		declare := func(id *ast.Ident, as name) {
			if id.IsExported() {
				group[name{dir, id.Name}] = as
				if _, ok := where[as]; !ok {
					where[as] = fmt.Sprintf("%s:%d: %s.%s", f.path, f.fset.Position(id.Pos()).Line, path.Base(dir), as.id)
				}
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(d.Name, name{dir, d.Name.Name})
				}
			case *ast.GenDecl:
				typ := "" // the named type the current const spec inherits
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(s.Name, name{dir, s.Name.Name})
					case *ast.ValueSpec:
						if d.Tok == token.CONST && d.Lparen.IsValid() && (s.Type != nil || len(s.Values) != 0) {
							typ = ""
							if t, ok := s.Type.(*ast.Ident); ok {
								typ = t.Name
							}
						}
						for _, id := range s.Names {
							as := name{dir, id.Name}
							if typ != "" {
								as = name{dir, "(" + typ + " consts)"}
							}
							declare(id, as)
						}
					}
				}
			}
		}
	}

	used := map[name]bool{}
	for _, f := range files {
		dir := path.Dir(f.path)
		imports := map[string]string{} // local name → module-relative directory
		for _, im := range f.ast.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			rel, ok := strings.CutPrefix(ip, module+"/")
			if !ok {
				continue
			}
			local := path.Base(ip)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = rel
		}
		use := func(n name) {
			if as, ok := group[n]; ok && (!f.test() || n.dir != dir) {
				used[as] = true
			}
		}
		// A declaration's references to its own names are not uses.
		var self map[string]bool
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if rel, ok := imports[x.Name]; ok {
						use(name{rel, n.Sel.Name})
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Field:
				ast.Inspect(n.Type, visit)
				return false
			case *ast.Ident:
				if !self[n.Name] {
					use(name{dir, n.Name})
				}
			}
			return true
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				self = map[string]bool{}
				if d.Recv == nil {
					self[d.Name.Name] = true
				}
				ast.Inspect(d.Type, visit)
				if d.Body != nil {
					ast.Inspect(d.Body, visit)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					self = map[string]bool{}
					switch s := s.(type) {
					case *ast.TypeSpec:
						self[s.Name.Name] = true
						ast.Inspect(s.Type, visit)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							self[id.Name] = true
						}
						if s.Type != nil {
							ast.Inspect(s.Type, visit)
						}
						for _, v := range s.Values {
							ast.Inspect(v, visit)
						}
					}
				}
			}
		}
	}

	var out []string
	for n, loc := range where {
		if !used[n] {
			out = append(out, loc)
		}
	}
	sort.Strings(out)
	return out
}

func modulePath(t *testing.T) string {
	t.Helper()
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(mod), "\n") {
		if m, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(m)
		}
	}
	t.Fatal("go.mod names no module")
	return ""
}

// TestNoUnusedExports: an exported name under internal/ that only its own
// package's tests use is unexported, moved into a _test.go, or deleted.
func TestNoUnusedExports(t *testing.T) {
	for _, finding := range unusedExports(modulePath(t), loadModule(t)) {
		t.Errorf("%s is used by nothing outside its own package's tests (unexport it, move it into a _test.go, or delete it)", finding)
	}
}

func TestUnusedExportCases(t *testing.T) {
	const lib = "package lib\n\nfunc Used() {}\n\nfunc Unused() {}\n"
	cases := []struct {
		name  string
		files []snippet
		want  []string
	}{
		{"a non-test use in another package", []snippet{
			{"internal/lib/lib.go", lib},
			{"cmd/x/main.go", "package main\n\nimport \"m/internal/lib\"\n\nfunc main() { lib.Used() }\n"},
		}, []string{"lib.Unused"}},
		{"a use inside the package's own non-test code", []snippet{
			{"internal/lib/lib.go", lib},
			{"internal/lib/other.go", "package lib\n\nfunc f() { Used(); Unused() }\n"},
		}, nil},
		{"own tests, comments and strings are not uses", []snippet{
			{"internal/lib/lib.go", lib + "\n// Unused\nvar s = \"lib.Unused\"\n"},
			{"internal/lib/lib_test.go", "package lib\n\nfunc g() { Used(); Unused() }\n"},
			{"internal/lib/ext_test.go", "package lib_test\n\nimport \"m/internal/lib\"\n\nfunc h() { lib.Used() }\n"},
			{"bench/main.go", "package main\n\nimport \"m/internal/lib\"\n\nfunc main() { lib.Used() }\n"},
		}, []string{"lib.Unused"}},
		{"a test in another directory is a use", []snippet{
			{"internal/lib/lib.go", lib},
			{"lint_test.go", "package bench\n\nimport l \"m/internal/lib\"\n\nfunc h() { l.Used(); l.Unused() }\n"},
		}, nil},
		{"a self-reference is not a use", []snippet{
			{"internal/lib/lib.go", "package lib\n\ntype List struct{ Next *List }\n\nfunc Rec() { Rec() }\n"},
		}, []string{"lib.List", "lib.Rec"}},
		{"a same-named field or method is not a use", []snippet{
			{"internal/lib/lib.go", "package lib\n\nconst Size = 1\n\ntype T struct{ Size int }\n\nfunc (t T) Len() int { return t.Size }\n"},
			{"cmd/x/main.go", "package main\n\nimport \"m/internal/lib\"\n\nvar _ lib.T\n"},
		}, []string{"lib.Size"}},
		{"a one-type const block is one name", []snippet{
			{"internal/lib/lib.go", "package lib\n\ntype Bin int\n\nconst (\n\tBinA Bin = iota\n\tBinB\n\tBinC\n)\n\nconst (\n\tKiB = 1024\n\tMiB = 1024 * KiB\n)\n"},
			{"cmd/x/main.go", "package main\n\nimport \"m/internal/lib\"\n\nvar _, _ = lib.BinB, lib.MiB\n"},
		}, nil},
		{"an untyped const block is one name each", []snippet{
			{"internal/lib/lib.go", "package lib\n\nconst (\n\tKiB = 1024\n\tMiB = 1024 * 1024\n)\n"},
			{"cmd/x/main.go", "package main\n\nimport \"m/internal/lib\"\n\nvar _ = lib.MiB\n"},
		}, []string{"lib.KiB"}},
		{"only internal/ declarations are checked", []snippet{
			{"cmd/x/main.go", "package main\n\nfunc Exported() {}\n\nfunc main() {}\n"},
		}, nil},
	}
	for _, c := range cases {
		var got []string
		for _, finding := range unusedExports("m", parseSnippets(t, c.files)) {
			got = append(got, finding[strings.LastIndex(finding, " ")+1:])
		}
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("%s: unused = %v, want %v", c.name, got, c.want)
		}
	}
}
