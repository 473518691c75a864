// Command mayalint runs the project's static analyzers (internal/lint)
// over the repository and fails on findings. It is the mechanical check
// behind the determinism guarantees: wall-clock discipline, RNG-stream
// ownership, map-iteration order, float comparisons, hot-path allocation
// hygiene, and — through the whole-program call graph — lock-hold,
// context-propagation, and channel-backpressure discipline.
//
// Usage:
//
//	mayalint [flags] [packages]
//
//	-json               write findings as JSON to stdout
//	-json-file FILE     also write findings as JSON to FILE (even when clean)
//	-sarif              write findings as SARIF 2.1.0 to stdout
//	-sarif-file FILE    also write findings as SARIF 2.1.0 to FILE (even when clean)
//	-nolint-report      list every //nolint:maya suppression with its reason
//	-run REGEXP         only run analyzers whose name matches
//	-list               list analyzers and exit
//	-debug              print type-check warnings to stderr
//
// Packages are go-style directory patterns ("./...", "./internal/core");
// the default is "./...". Exit status is 0 when clean, 1 on findings, and
// 2 on a usage or load error. A //nolint:maya directive without a reason,
// or naming an unknown analyzer, is a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"

	"github.com/maya-defense/maya/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		jsonOut      = flag.Bool("json", false, "write findings as JSON to stdout")
		jsonFile     = flag.String("json-file", "", "also write findings as JSON to this file (always written, even when clean)")
		sarifOut     = flag.Bool("sarif", false, "write findings as SARIF 2.1.0 to stdout")
		sarifFile    = flag.String("sarif-file", "", "also write findings as SARIF 2.1.0 to this file (always written, even when clean)")
		nolintReport = flag.Bool("nolint-report", false, "list every //nolint:maya suppression with its reason and exit")
		runExpr      = flag.String("run", "", "only run analyzers whose name matches this regexp")
		list         = flag.Bool("list", false, "list analyzers and exit")
		debug        = flag.Bool("debug", false, "print type-check warnings to stderr")
	)
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *runExpr != "" {
		re, err := regexp.Compile(*runExpr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mayalint: bad -run regexp: %v\n", err)
			return 2
		}
		var kept []*lint.Analyzer
		for _, a := range analyzers {
			if re.MatchString(a.Name) {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mayalint: %v\n", err)
		return 2
	}
	prog, err := lint.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mayalint: %v\n", err)
		return 2
	}
	root := prog.Root
	if *debug {
		for _, p := range prog.Pkgs {
			for _, e := range p.TypeErrors {
				fmt.Fprintf(os.Stderr, "mayalint: typecheck %s: %v\n", p.Path, e)
			}
		}
	}

	if *nolintReport {
		reportNolints(prog.Pkgs, root)
		return 0
	}

	diags := lint.Run(prog, analyzers)
	if diags == nil {
		diags = []lint.Diagnostic{} // a clean run renders as [], not null
	}

	if *jsonFile != "" {
		if err := writeJSON(*jsonFile, diags); err != nil {
			fmt.Fprintf(os.Stderr, "mayalint: %v\n", err)
			return 2
		}
	}
	if *sarifFile != "" {
		if err := writeSARIFFile(*sarifFile, diags, analyzers, root); err != nil {
			fmt.Fprintf(os.Stderr, "mayalint: %v\n", err)
			return 2
		}
	}
	switch {
	case *sarifOut:
		if err := lint.WriteSARIF(os.Stdout, diags, analyzers, root); err != nil {
			fmt.Fprintf(os.Stderr, "mayalint: %v\n", err)
			return 2
		}
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "mayalint: %v\n", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(os.Stderr, "mayalint: %d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// reportNolints prints the suppression audit: every //nolint:maya
// directive with its reason.
func reportNolints(pkgs []*lint.Package, root string) {
	entries := lint.NolintReport(pkgs, root)
	for _, e := range entries {
		reason := e.Reason
		if reason == "" {
			reason = "(no reason)"
		}
		names := ""
		for i, n := range e.Analyzers {
			if i > 0 {
				names += ","
			}
			names += "maya/" + n
		}
		fmt.Printf("%s:%d: %s: %s\n", e.File, e.Line, names, reason)
	}
	fmt.Fprintf(os.Stderr, "mayalint: %d suppression(s)\n", len(entries))
}

func writeJSON(path string, diags []lint.Diagnostic) error {
	data, err := json.MarshalIndent(diags, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeSARIFFile(path string, diags []lint.Diagnostic, analyzers []*lint.Analyzer, root string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := lint.WriteSARIF(f, diags, analyzers, root); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
