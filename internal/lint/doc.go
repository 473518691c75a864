// Package lint is mayalint: a stdlib-only static-analysis framework
// (go/parser, go/ast, go/types — no external dependencies) with
// project-specific analyzers that mechanically enforce the invariants
// Maya's security argument rests on. The paper's §IV reproducibility claim
// — the mask stream is an exact function of a secret seed — and this
// repository's byte-identical experiment reports are properties the Go
// compiler cannot check; these analyzers gate them at review time.
//
// # The interprocedural engine
//
// Beyond the per-package passes, the framework builds a whole-program
// call graph over go/types (callgraph.go): static calls and concrete
// method calls resolve exactly; interface calls resolve by method
// name+signature over the program's concrete method sets; calls through
// function values — the runner/fleet callback fields — resolve to every
// address-taken function of the same signature. Generic instantiations
// collapse onto their origin declaration. Each graph node carries a
// computed fact summary (facts.go): allocation sites, wall-clock reads
// (with their //maya:wallclock blessing), blocking operations, map
// ranges, and math/rand uses. Analyzers walk callee cones over these
// summaries and report with full blame chains ("a → b → c"), so a
// finding three calls deep lands on the call edge the author can see.
//
// # Analyzers
//
//   - detwallclock: time.Now/time.Since outside //maya:wallclock sites;
//     interprocedurally, even *blessed* reads reachable from trace/flight
//     writers (blessed accounting must never feed serialized artifacts).
//   - detrand: any import of math/rand; use internal/rng. Suppressed
//     survivors are still traced into trace/flight writer cones.
//   - maprange: order-sensitive work (append, output, JSON, telemetry)
//     inside a map range.
//   - rngshare: a *rng.Stream crossing a goroutine boundary without child
//     derivation — directly, via struct fields or composite literals, or
//     through a callee that leaks its stream parameter (escape analysis
//     with fixpoint propagation across call sites).
//   - floateq: ==/!= on floats in non-test code, except against the
//     constant zero (sentinel, sparsity and zero-divisor checks).
//   - hotalloc: fmt, string building, or interface boxing inside
//     //maya:hotpath functions — transitively through the callee cone,
//     charged to the call edge leaving the hot function. Constants are
//     exempt (they box to static data); //maya:coldpath stops the walk.
//   - cachekey: wall-clock reads (even //maya:wallclock-blessed ones),
//     map ranges, or math/rand anywhere in the callee cone of a
//     //maya:cachekey experiment-cache key derivation.
//   - lockhold: a sync.Mutex/RWMutex held across a channel operation,
//     select, WaitGroup.Wait, sleep, or a call whose cone blocks.
//     sync.Cond.Wait is exempt (it waits with its lock by design).
//   - ctxprop: context.Background()/TODO() passed to a callee, or a
//     blocking goroutine spawned without the context, while a
//     context.Context parameter is in scope.
//   - sendloop: a send on a provably-unbuffered channel inside a
//     //maya:hotpath loop or a range-over-channel tick loop; select-
//     wrapped sends are exempt.
//
// # Directive syntax
//
// Annotations bless sites that are legitimate by design:
//
//	//maya:wallclock <optional reason>
//	//maya:hotpath   <optional reason>
//	//maya:coldpath  <optional reason>
//	//maya:cachekey  <optional reason>
//
// A maya: directive in a function's doc comment covers the whole function
// (closures included). On a line of its own it covers the next source
// line; trailing a statement it covers that line. //maya:wallclock marks
// overhead accounting that measures the host and never feeds decisions;
// //maya:hotpath opts a function into hotalloc's allocation rules;
// //maya:coldpath (doc-comment placement) asserts a function is off every
// hot path — panic formatting, error paths — so the transitive hotalloc
// walk does not descend into it; //maya:cachekey (doc-comment placement
// only) opts a key-derivation function into the cachekey audit, under
// which wall-clock blessings stop applying and map iteration is banned
// outright.
//
// Suppressions silence one finding, with an unused-suppression check so
// stale annotations are themselves findings:
//
//	x := a == b //nolint:maya/floateq degenerate-range guard on exact config values
//	//nolint:maya/maprange order is folded through a commutative sum
//	y := collect(m)
//
// The list form //nolint:maya/a,maya/b is accepted; entries for other
// linters in the same comment are ignored. Suppressions naming an unknown
// analyzer, or matching no finding, are reported under the pseudo-analyzer
// "nolint", which cannot itself be suppressed. The prose after the name
// list is the suppression's reason: `mayalint -nolint-report` enumerates
// every suppression with its reason and fails on reason-less directives,
// so the suppression set doubles as an audit trail.
//
// # Baseline
//
// lint.baseline.json at the module root is the committed ledger of
// audited legacy findings. Fingerprints are analyzer + module-relative
// file + message — deliberately line-independent, so edits above a
// finding do not churn the ledger — with a count per fingerprint. New
// findings fail CI; baselined ones don't; a baselined finding that gets
// fixed fails as stale until its entry is pruned, so the ledger only
// ever shrinks. Regenerate with `mayalint -write-baseline
// lint.baseline.json` (then audit the diff).
//
// # Running
//
//	go run ./cmd/mayalint ./...             # text findings, exit 1 if any
//	go run ./cmd/mayalint -json ./...       # machine-readable findings
//	go run ./cmd/mayalint -sarif ./...      # SARIF 2.1.0 for code scanners
//	go run ./cmd/mayalint -nolint-report    # audit the suppression set
//	scripts/lint.sh                         # CI entry point: baseline +
//	                                        # JSON + SARIF + nolint audit
//
// Loading is lenient: files that fail to type-check perfectly still get
// analyzed with partial type information, so one broken file cannot mask
// findings elsewhere.
package lint
