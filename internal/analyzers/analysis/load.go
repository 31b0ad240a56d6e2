package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one type-checked analysis unit: a package's compiled
// files plus its in-package test files, or the external test package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info

	suppress suppressionIndex
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	Dir          string
	ImportPath   string
	Name         string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Error        *struct{ Err string }
}

// LoadPatterns expands package patterns (e.g. "./...") with `go list`
// and type-checks every matched package. In-package test files are
// checked together with the package proper, mirroring `go vet`;
// external _test packages become separate units. testdata directories
// are skipped by pattern expansion (per the go tool's own rule) but can
// be named explicitly, which is how the linter's own fixtures are
// exercised end-to-end.
func LoadPatterns(patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		listed = append(listed, lp)
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)

	var pkgs []*Package
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles)+len(lp.TestGoFiles) > 0 {
			unit, err := checkUnit(fset, imp, lp.ImportPath, lp.Dir, append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...))
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, unit)
		}
		if len(lp.XTestGoFiles) > 0 {
			unit, err := checkUnit(fset, imp, lp.ImportPath+"_test", lp.Dir, lp.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, unit)
		}
	}
	return pkgs, nil
}

// A DirUnit names one fixture package for LoadDirs: a directory of Go
// files and the import path other units in the same call may import
// it under.
type DirUnit struct {
	Dir        string
	ImportPath string
	Files      []string
}

// LoadDirs type-checks several fixture directories as one program
// sharing a FileSet, in the order given — list dependencies before
// their importers. It is the analysistest harness's loader: fixture
// packages live outside the module graph, the test chooses their
// import paths, and units can import each other by them (a chained
// importer serves already-checked units and falls back to the source
// importer for everything else).
func LoadDirs(units []DirUnit) ([]*Package, error) {
	fset := token.NewFileSet()
	chain := &chainedImporter{
		local:    map[string]*types.Package{},
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	var pkgs []*Package
	for _, u := range units {
		pkg, err := checkUnit(fset, chain, u.ImportPath, u.Dir, u.Files)
		if err != nil {
			return nil, err
		}
		chain.local[u.ImportPath] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// chainedImporter serves packages type-checked earlier in a LoadDirs
// call by import path, deferring to the source importer otherwise.
type chainedImporter struct {
	local    map[string]*types.Package
	fallback types.Importer
}

func (c *chainedImporter) Import(path string) (*types.Package, error) {
	if p := c.local[path]; p != nil {
		return p, nil
	}
	return c.fallback.Import(path)
}

func checkUnit(fset *token.FileSet, imp types.Importer, importPath, dir string, filenames []string) (*Package, error) {
	sort.Strings(filenames)
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", importPath, err)
		}
		files = append(files, f)
	}

	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	tpkg, _ := conf.Check(importPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("%s: type checking failed: %v", importPath, typeErrs[0])
	}

	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
		suppress:   buildSuppressionIndex(fset, files),
	}, nil
}

// Run applies every analyzer to every package (per-package analyzers)
// or once to the whole program (RunProgram analyzers), filters
// findings through the //hetmp:allow suppression index — recording
// which suppressions fired, so StaleSuppressions can report the rest —
// and returns the survivors in deterministic (file, line, column,
// analyzer) order.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, *token.FileSet, error) {
	var diags []Diagnostic
	var fset *token.FileSet
	for _, pkg := range pkgs {
		fset = pkg.Fset
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			pass.report = func(d Diagnostic) {
				if pkg.suppress.suppressed(pkg.Fset, d.Pos, d.Category) {
					return
				}
				diags = append(diags, d)
			}
			if err := a.Run(pass); err != nil {
				return nil, fset, fmt.Errorf("%s on %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
	}
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			prog = BuildProgram(pkgs)
			if fset == nil {
				fset = prog.Fset
			}
		}
		pass := &ProgramPass{Analyzer: a, Prog: prog}
		pass.report = func(d Diagnostic) {
			for _, pkg := range pkgs {
				if pkg.suppress.suppressed(pkg.Fset, d.Pos, d.Category) {
					return
				}
			}
			diags = append(diags, d)
		}
		if err := a.RunProgram(pass); err != nil {
			return nil, fset, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	if fset != nil {
		sort.SliceStable(diags, func(i, j int) bool {
			pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			if pi.Column != pj.Column {
				return pi.Column < pj.Column
			}
			return diags[i].Category < diags[j].Category
		})
	}
	return diags, fset, nil
}
