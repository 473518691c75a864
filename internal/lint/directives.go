package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// The project's directive comments. A //maya:<name> directive blesses a
// site that would otherwise be flagged; a //nolint:maya/<name> comment
// suppresses a specific finding. Both are parsed here so every analyzer
// shares one set of placement rules:
//
//   - in a function's doc comment, a maya: directive covers the whole
//     function (including closures declared inside it);
//   - trailing a statement, it covers that line;
//   - standing alone on its own line, it covers the next line (so a
//     directive can carry an explanation without fighting gofmt).
//
// nolint directives use the same trailing/standalone placement.

// DirWallclock, DirHotpath, DirCachekey, and DirColdpath are the
// recognized //maya: directive names.
const (
	DirWallclock = "wallclock"
	DirHotpath   = "hotpath"
	// DirCachekey marks experiment-cache key-derivation functions; the
	// cachekey analyzer holds them to stricter determinism rules than the
	// rest of the repo (see cachekey.go).
	DirCachekey = "cachekey"
	// DirColdpath asserts that a function is deliberately off the hot
	// path (panic formatting, error reporting): hotalloc's transitive cone
	// walk does not descend into it even when it is called from a
	// //maya:hotpath function. Doc-comment placement only.
	DirColdpath = "coldpath"
)

type nolintDirective struct {
	file string
	// line/col locate the comment itself (where unused/unknown directives
	// are reported); appliesTo is the source line whose findings it covers.
	line      int
	col       int
	appliesTo int
	names     []string // suppressed analyzer names, "maya/" prefix stripped
	reason    string   // prose after the name list; Run reports a directive without one
}

type directiveIndex struct {
	// lines maps file → line → directive names effective on that line.
	lines map[string]map[string]bool // key "file:line"
	// funcs maps a FuncDecl with a doc directive to the directive names.
	funcs   map[*ast.FuncDecl]map[string]bool
	nolints []*nolintDirective
}

// directives parses and caches the package's directive comments.
func (p *Package) directives() *directiveIndex {
	if p.dirIndex != nil {
		return p.dirIndex
	}
	idx := &directiveIndex{
		lines: map[string]map[string]bool{},
		funcs: map[*ast.FuncDecl]map[string]bool{},
	}
	for _, f := range p.Files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				idx.addComment(p.Fset, f, c)
			}
		}
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if name, ok := mayaDirective(c.Text); ok {
					if idx.funcs[fd] == nil {
						idx.funcs[fd] = map[string]bool{}
					}
					idx.funcs[fd][name] = true
				}
			}
		}
	}
	p.dirIndex = idx
	return idx
}

func (idx *directiveIndex) addComment(fset *token.FileSet, f *File, c *ast.Comment) {
	pos := fset.Position(c.Pos())
	standalone := onlyWhitespaceBefore(f.src, pos)
	if name, ok := mayaDirective(c.Text); ok {
		idx.markLine(pos.Filename, pos.Line, name)
		if standalone {
			idx.markLine(pos.Filename, pos.Line+1, name)
		}
		return
	}
	names, reason, ok := nolintNames(c.Text)
	if !ok {
		return
	}
	appliesTo := pos.Line
	if standalone {
		appliesTo = pos.Line + 1
	}
	idx.nolints = append(idx.nolints, &nolintDirective{
		file: pos.Filename, line: pos.Line, col: pos.Column,
		appliesTo: appliesTo, names: names, reason: reason,
	})
}

func (idx *directiveIndex) markLine(file string, line int, name string) {
	key := lineKey(file, line)
	if idx.lines[key] == nil {
		idx.lines[key] = map[string]bool{}
	}
	idx.lines[key][name] = true
}

func lineKey(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}

// onlyWhitespaceBefore reports whether the comment at pos is the first
// non-blank thing on its source line.
func onlyWhitespaceBefore(src []byte, pos token.Position) bool {
	if pos.Offset > len(src) {
		return false
	}
	for i := pos.Offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return true
		case ' ', '\t', '\r':
		default:
			return false
		}
	}
	return true
}

// mayaDirective parses "//maya:<name>" (optionally followed by prose) and
// returns the directive name.
func mayaDirective(text string) (string, bool) {
	rest, ok := strings.CutPrefix(text, "//maya:")
	if !ok {
		return "", false
	}
	name, _, _ := strings.Cut(rest, " ")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", false
	}
	return name, true
}

// nolintNames parses "//nolint:maya/a,maya/b <reason>" and returns the
// maya-scoped analyzer names plus the trailing explanation. Entries for
// other linters are ignored; a bare "//nolint" without maya entries is not
// ours.
func nolintNames(text string) (names []string, reason string, ok bool) {
	rest, found := strings.CutPrefix(text, "//nolint:")
	if !found {
		return nil, "", false
	}
	// Allow a trailing explanation after whitespace: "//nolint:maya/x exact
	// zero test". The list itself must not contain spaces.
	list, after, _ := strings.Cut(strings.TrimSpace(rest), " ")
	for _, entry := range strings.Split(list, ",") {
		if name, isMaya := strings.CutPrefix(strings.TrimSpace(entry), "maya/"); isMaya && name != "" {
			names = append(names, name)
		}
	}
	return names, strings.TrimSpace(after), len(names) > 0
}

// suppressing returns the directive covering d, if any.
func (idx *directiveIndex) suppressing(d Diagnostic) *nolintDirective {
	for _, nd := range idx.nolints {
		if nd.file != d.File || nd.appliesTo != d.Line {
			continue
		}
		for _, name := range nd.names {
			if name == d.Analyzer {
				return nd
			}
		}
	}
	return nil
}

// blessed reports whether the node at pos is covered by the named //maya:
// directive — on its own line, on the line above (standalone form), or on
// the enclosing function's doc comment.
func (p *Package) blessed(f *File, pos token.Pos, name string) bool {
	idx := p.directives()
	position := p.Fset.Position(pos)
	if idx.lines[lineKey(position.Filename, position.Line)][name] {
		return true
	}
	if fd := enclosingFunc(f.AST, pos); fd != nil && idx.funcs[fd][name] {
		return true
	}
	return false
}

// funcDirective reports whether the declaration carries the named //maya:
// directive in its doc comment.
func (p *Package) funcDirective(fd *ast.FuncDecl, name string) bool {
	return p.directives().funcs[fd][name]
}
