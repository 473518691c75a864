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
	// Path is the import path ("…/internal/core"); an external test
	// package's path ends in "_test", as the go tool names it.
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
// patterns ("./...", "./internal/core", "."), resolved relative to dir, and
// returns them as one Program. testdata, hidden, and underscore-prefixed
// directories are skipped, as the go tool does.
//
// Each directory is type-checked once. A module import resolves to the
// loader's own unit for that directory, so a declared function is one
// *types.Func program-wide; a dependency outside the patterns is checked
// on its first import but is not part of the Program, so nothing is
// reported on it. The standard library goes through one shared source
// importer. Loading is lenient: type errors, an import cycle among them,
// are collected on the package, not fatal, so analyzers see as much of the
// tree as possible.
func Load(dir string, patterns []string) (*Program, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		fset: fset, root: root, modPath: modPath,
		std:   importer.ForCompiler(fset, "source", nil),
		dirs:  map[string]string{},
		units: map[string]*unit{},
	}
	paths := make([]string, len(dirs))
	for i, d := range dirs {
		paths[i] = l.importPath(d)
		l.dirs[paths[i]] = d
	}
	prog := &Program{Fset: fset, Root: root, owner: map[string]*Package{}}
	for _, path := range paths {
		u, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if u.ext != nil {
			l.check(u.ext)
		}
		for _, pkg := range []*Package{u.pkg, u.ext} {
			if pkg == nil {
				continue
			}
			prog.Pkgs = append(prog.Pkgs, pkg)
			for _, f := range pkg.Files {
				prog.owner[f.Name] = pkg
			}
		}
	}
	return prog, nil
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

// loader type-checks each directory of the module once, on its first
// import or pattern match; it is also the type checker's importer.
type loader struct {
	fset          *token.FileSet
	root, modPath string
	std           types.Importer    // the standard library, shared by every unit
	dirs          map[string]string // import path → directory as the patterns spell it
	// units maps an import path to its directory's units. A nil entry is a
	// unit being checked, so an import that reaches it again is a cycle.
	units map[string]*unit
}

// unit is one parsed directory: its compiled package (with in-package
// tests) and its external _test package, either of which may be absent.
type unit struct {
	pkg, ext *Package
	err      error // the directory could not be read or parsed
}

// Import resolves the type checker's imports: module paths to the
// loader's own units, everything else to the standard library.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.modPath && !strings.HasPrefix(path, l.modPath+"/") {
		return l.std.Import(path)
	}
	u, err := l.load(path)
	if err != nil {
		return nil, err
	}
	if u.pkg == nil {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", path)
	}
	return u.pkg.Types, nil
}

// load parses the directory of a module import path and type-checks its
// compiled package, once. The external _test package is parsed with it
// but left to Load, since only a pattern match checks it.
func (l *loader) load(path string) (*unit, error) {
	if u, seen := l.units[path]; seen {
		if u == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return u, u.err
	}
	l.units[path] = nil
	// A directory the patterns matched keeps their spelling, so its file
	// names do not depend on whether an import reached it first.
	dir, ok := l.dirs[path]
	if !ok {
		dir = filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath)))
	}
	u := &unit{}
	u.pkg, u.ext, u.err = l.parseDir(path, dir)
	if u.pkg != nil {
		l.check(u.pkg)
	}
	l.units[path] = u
	return u, u.err
}

// importPath maps a directory to its import path within the module.
func (l *loader) importPath(dir string) string {
	// root is absolute (findModule resolves it) but dir is whatever the
	// caller passed; resolve it so Rel yields the real module-relative path
	// and distinct directories never collapse onto the same import path.
	if absDir, err := filepath.Abs(dir); err == nil {
		if rel, err := filepath.Rel(l.root, absDir); err == nil && rel != "." && !strings.HasPrefix(rel, "..") {
			return l.modPath + "/" + filepath.ToSlash(rel)
		}
	}
	return l.modPath
}

// parseDir parses one directory into up to two units: the package
// (compiled sources plus in-package tests) and, when present, the external
// _test package.
func (l *loader) parseDir(path, dir string) (pkg, ext *Package, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var inPkg, extTest []*File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		file := filepath.Join(dir, name)
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, nil, err
		}
		af, err := parser.ParseFile(l.fset, file, src, parser.ParseComments)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: %w", err)
		}
		f := &File{AST: af, Name: file, Test: strings.HasSuffix(name, "_test.go"), src: src}
		if f.Test && strings.HasSuffix(af.Name.Name, "_test") {
			extTest = append(extTest, f)
		} else {
			inPkg = append(inPkg, f)
		}
	}
	newPkg := func(path string, files []*File) *Package {
		if len(files) == 0 {
			return nil
		}
		return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files}
	}
	return newPkg(path, inPkg), newPkg(path+"_test", extTest), nil
}

// check type-checks one unit leniently, recording rather than failing on
// type errors.
func (l *loader) check(pkg *Package) {
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	asts := make([]*ast.File, len(pkg.Files))
	for i, f := range pkg.Files {
		asts[i] = f.AST
	}
	pkg.Types, _ = conf.Check(pkg.Path, l.fset, asts, pkg.Info)
}
