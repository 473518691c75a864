package lint

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"sort"
	"strconv"
)

// A baseline is the committed ledger of audited legacy findings: CI fails
// on any finding not in it, while the entries themselves — reviewed once,
// recorded with the full message — stay quiet until the code they describe
// changes. Fingerprints are analyzer + module-relative file + message,
// deliberately line-independent so unrelated edits above a finding do not
// churn the ledger; a Count per fingerprint keeps multiple identical
// findings in one file honest.

// Baseline is the persisted form (lint.baseline.json at the module root).
type Baseline struct {
	Version  int             `json:"version"`
	Findings []BaselineEntry `json:"findings"`
}

// BaselineEntry is one audited fingerprint.
type BaselineEntry struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"` // module-relative, forward slashes
	Message  string `json:"message"`
	Count    int    `json:"count"`
}

const baselineVersion = 1

func (e BaselineEntry) key() string {
	return e.Analyzer + "\x00" + e.File + "\x00" + e.Message
}

func diagKey(d Diagnostic, root string) string {
	return d.Analyzer + "\x00" + sarifURI(d.File, root) + "\x00" + d.Message
}

// LoadBaseline reads a baseline file; a missing file is an empty baseline,
// so a repo without one simply fails on every finding.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &Baseline{Version: baselineVersion}, nil
	}
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

// Filter splits diags into the findings not covered by the baseline (new,
// must fail) and reports the stale entries whose fingerprints matched
// fewer findings than their Count — dead weight that should be pruned so
// the ledger only ever shrinks.
func (b *Baseline) Filter(diags []Diagnostic, root string) (fresh []Diagnostic, stale []BaselineEntry) {
	remaining := make(map[string]int, len(b.Findings))
	for _, e := range b.Findings {
		remaining[e.key()] += e.Count
	}
	for _, d := range diags {
		k := diagKey(d, root)
		if remaining[k] > 0 {
			remaining[k]--
			continue
		}
		fresh = append(fresh, d)
	}
	for _, e := range b.Findings {
		if n := remaining[e.key()]; n > 0 {
			left := e
			left.Count = n
			stale = append(stale, left)
			remaining[e.key()] = 0
		}
	}
	return fresh, stale
}

// NewBaseline builds a baseline covering exactly the given findings,
// sorted for a stable committed artifact.
func NewBaseline(diags []Diagnostic, root string) *Baseline {
	counts := map[string]int{}
	order := map[string]BaselineEntry{}
	for _, d := range diags {
		e := BaselineEntry{Analyzer: d.Analyzer, File: sarifURI(d.File, root), Message: d.Message}
		counts[e.key()]++
		order[e.key()] = e
	}
	b := &Baseline{Version: baselineVersion, Findings: []BaselineEntry{}}
	for k, e := range order {
		e.Count = counts[k]
		b.Findings = append(b.Findings, e)
	}
	sort.Slice(b.Findings, func(i, j int) bool {
		a, c := b.Findings[i], b.Findings[j]
		if a.File != c.File {
			return a.File < c.File
		}
		if a.Analyzer != c.Analyzer {
			return a.Analyzer < c.Analyzer
		}
		return a.Message < c.Message
	})
	return b
}

// WriteBaseline persists b to path.
func WriteBaseline(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ModuleRoot resolves the enclosing module root for dir, for rebasing
// baseline fingerprints and SARIF URIs.
func ModuleRoot(dir string) (string, error) {
	root, _, err := findModule(dir)
	if err != nil {
		return "", err
	}
	return root, nil
}

// String renders one entry for stale-baseline error output.
func (e BaselineEntry) String() string {
	return e.File + ": " + e.Analyzer + ": " + e.Message + " (x" + strconv.Itoa(e.Count) + ")"
}
