// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against `// want "regex"` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest for the offline analysis
// framework in the parent package.
//
// Fixture layout follows the x/tools convention: <testdata>/src/<pkg>/
// holds one package of Go files. The packages named in one Run are
// loaded as one program, so whole-program analyzers see across them
// and per-function ones share one type-checked view of their imports.
// A line that should be flagged carries a trailing comment
// `// want "regexp"` (several quoted regexps if the line yields several
// findings). Lines carrying a valid //hetmp:allow
// suppression must NOT have a want comment — the harness runs the same
// suppression filter as the real driver, so an unexpectedly surviving
// diagnostic fails the test, which is exactly how the suppressed-case
// fixtures assert that suppression works.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hetmp/internal/analyzers/analysis"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// Run loads the fixture packages under testdata/src/<pkg> (listed
// dependency first — later packages may import earlier ones by their
// fixture paths) as ONE program sharing a FileSet, applies the analyzer
// (with suppression filtering), and compares the surviving diagnostics
// against want comments across every file of every package.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	var units []analysis.DirUnit
	for _, p := range pkgPaths {
		dir := filepath.Join(testdata, "src", p)
		units = append(units, analysis.DirUnit{Dir: dir, ImportPath: p, Files: goFilesIn(t, dir, p)})
	}
	pkgs, err := analysis.LoadDirs(units)
	if err != nil {
		t.Fatalf("fixture program %v: %v", pkgPaths, err)
	}

	var wants []*expectation
	for _, pkg := range pkgs {
		ws, err := collectWants(pkg)
		if err != nil {
			t.Fatalf("fixture package %s: %v", pkg.ImportPath, err)
		}
		wants = append(wants, ws...)
	}

	diags, fset, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on fixture program %v: %v", a.Name, pkgPaths, err)
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !claim(wants, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.source)
		}
	}
}

type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	source  string
	matched bool
}

func goFilesIn(t *testing.T, dir, importPath string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fixture package %s: %v", importPath, err)
	}
	var filenames []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			filenames = append(filenames, e.Name())
		}
	}
	if len(filenames) == 0 {
		t.Fatalf("fixture package %s: no Go files in %s", importPath, dir)
	}
	return filenames
}

// claim marks the first unmatched expectation at (file, line) whose
// regexp matches msg, returning false when none does.
func claim(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.rx.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

var quotedString = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func collectWants(pkg *analysis.Package) ([]*expectation, error) {
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				// `want` may follow other comment text on the line:
				// Go lexes `//hetmp:allowX foo // want "..."` as ONE
				// comment, and suppression edge-case fixtures need a
				// want on exactly such lines.
				idx := strings.Index(text, "want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				raw := quotedString.FindAllString(text[idx+len("want "):], -1)
				if len(raw) == 0 {
					if idx == 0 {
						return nil, fmt.Errorf("%s:%d: malformed want comment (no quoted regexp): %s", pos.Filename, pos.Line, c.Text)
					}
					continue // prose comment that merely contains "want "
				}
				for _, q := range raw {
					var pattern string
					if strings.HasPrefix(q, "`") {
						pattern = strings.Trim(q, "`")
					} else {
						var err error
						pattern, err = strconv.Unquote(q)
						if err != nil {
							return nil, fmt.Errorf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
						}
					}
					rx, err := regexp.Compile(pattern)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pattern, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, rx: rx, source: pattern})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants, nil
}
