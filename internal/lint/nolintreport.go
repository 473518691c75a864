package lint

import "sort"

// The nolint report is the audit surface for suppressions: every
// //nolint:maya directive in the tree, with the analyzers it silences and
// the written reason beside it. Run refuses a directive that gives no
// reason or names an analyzer that does not exist; the report only lists.

// Suppression is one //nolint:maya directive.
type Suppression struct {
	File      string   `json:"file"` // module-relative, forward slashes
	Line      int      `json:"line"`
	Analyzers []string `json:"analyzers"`
	Reason    string   `json:"reason"`
}

// NolintReport enumerates every suppression in the loaded packages,
// sorted by position. root rebases file paths when non-empty.
func NolintReport(pkgs []*Package, root string) []Suppression {
	var entries []Suppression
	for _, pkg := range pkgs {
		for _, nd := range pkg.directives().nolints {
			entries = append(entries, Suppression{
				File: sarifURI(nd.file, root), Line: nd.line, Analyzers: nd.names, Reason: nd.reason,
			})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].File != entries[j].File {
			return entries[i].File < entries[j].File
		}
		return entries[i].Line < entries[j].Line
	})
	return entries
}
