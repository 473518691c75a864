package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// File is one parsed source file with the raw text kept around so directive
// handling can tell trailing comments from standalone comment lines.
type File struct {
	AST  *ast.File
	Name string // path as recorded in the FileSet
	Test bool   // *_test.go
	src  []byte
}

// Package is one type-checked unit: either a package's compiled files plus
// its in-package tests, or the external _test package of a directory.
type Package struct {
	// Path is the import path ("…/internal/core"); external test packages
	// carry the conventional ".test" suffix.
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*File
	// Types and Info hold the (possibly partial) type-checking results.
	// Analyzers must tolerate missing entries: loading is lenient so one
	// broken file cannot hide findings in the rest of the package.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects what the checker complained about, for -debug
	// output; lenient loading means these are warnings, not failures.
	TypeErrors []error

	dirIndex *directiveIndex
}

// Load parses and type-checks the packages matched by the go-style dir
// patterns ("./...", "./internal/core", "."), resolved relative to dir.
// testdata, hidden, and underscore-prefixed directories are skipped, as the
// go tool does. Loading is lenient: type errors are collected on the
// package, not fatal, so analyzers see as much of the tree as possible.
func Load(dir string, patterns []string) ([]*Package, error) {
	modRoot, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	// One importer instance for the whole run so its source-level package
	// cache is shared across every unit we check.
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Package
	for _, d := range dirs {
		units, err := loadDir(fset, imp, d, modRoot, modPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, units...)
	}
	return pkgs, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, path string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// expandPatterns resolves dir patterns to a sorted list of directories that
// contain Go files.
func expandPatterns(base string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(d string) {
		if !seen[d] && hasGoFiles(d) {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" {
				pat = "."
			}
		} else if pat == "..." {
			recursive = true
			pat = "."
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(base, root)
		}
		info, err := os.Stat(root)
		if err != nil {
			return nil, fmt.Errorf("lint: bad pattern %q: %w", pat, err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q is not a directory", pat)
		}
		if !recursive {
			add(root)
			continue
		}
		err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// loadDir parses one directory and type-checks it as up to two units: the
// package (compiled sources plus in-package tests) and, when present, the
// external _test package.
func loadDir(fset *token.FileSet, imp types.Importer, dir, modRoot, modPath string) ([]*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var inPkg, extTest []*File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		af, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		f := &File{AST: af, Name: path, Test: strings.HasSuffix(name, "_test.go"), src: src}
		if f.Test && strings.HasSuffix(af.Name.Name, "_test") {
			extTest = append(extTest, f)
		} else {
			inPkg = append(inPkg, f)
		}
	}
	// modRoot is absolute (findModule resolves it) but dir is whatever the
	// caller passed; resolve it so Rel yields the real module-relative path
	// and distinct directories never collapse onto the same import path.
	importPath := modPath
	if absDir, err := filepath.Abs(dir); err == nil {
		if rel, err := filepath.Rel(modRoot, absDir); err == nil && rel != "." && !strings.HasPrefix(rel, "..") {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
	}
	var pkgs []*Package
	if len(inPkg) > 0 {
		pkgs = append(pkgs, check(fset, imp, importPath, dir, inPkg))
	}
	if len(extTest) > 0 {
		pkgs = append(pkgs, check(fset, imp, importPath+".test", dir, extTest))
	}
	return pkgs, nil
}

// check type-checks one unit leniently, recording rather than failing on
// type errors.
func check(fset *token.FileSet, imp types.Importer, path, dir string, files []*File) *Package {
	pkg := &Package{Path: path, Dir: dir, Fset: fset, Files: files}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	asts := make([]*ast.File, len(files))
	for i, f := range files {
		asts[i] = f.AST
	}
	tpkg, _ := conf.Check(strings.TrimSuffix(path, ".test"), fset, asts, info)
	pkg.Types = tpkg
	pkg.Info = info
	return pkg
}
