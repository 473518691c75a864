// Package hotalloc is a golden-test fixture for hot-path allocation
// hygiene.
package hotalloc

import "fmt"

func sink(v interface{})      { _ = v }
func sinkMany(vs ...any)      { _ = vs }
func passthrough(vs ...any)   { sinkMany(vs...) }
func typed(s string, n int64) { _, _ = s, n }

// step is the fixture's per-tick function.
//
//maya:hotpath
func step(n int, name string) interface{} {
	fmt.Println(n)  // want "fmt.Println in hot path step allocates and reflects"
	s := name + "!" // want "string concatenation in hot path step allocates"
	typed(s, 2)
	sink(n)        // want "argument boxes int into"
	sinkMany(1, s) // want "argument boxes string into"

	// Constants box to static data the compiler emits at build time — no
	// runtime allocation, no finding (the 1 above, the conversion below,
	// and panicking with a literal message).
	cv := interface{}(3.5)
	_ = cv
	if n < 0 {
		panic("step: negative tick")
	}

	// Forwarding an existing slice does not box per element.
	pre := []any{name}
	sinkMany(pre...)

	var box interface{}
	box = n // want "assignment boxes int into"
	_ = box
	f := float64(n)
	conv := interface{}(f) // want "conversion boxes float64 into"
	_ = conv

	return n // want "return boxes int into"
}

// cold is not annotated: the same constructs are legal off the hot path.
func cold(n int, name string) interface{} {
	fmt.Println(n)
	sink(name + "!")
	return n
}

// label allocates; it is not a hot path itself.
func label(n int) string { return fmt.Sprint(n) }

// stepTwice calls label from two call sites, and each call edge carries
// its own finding.
//
//maya:hotpath
func stepTwice(n int) {
	label(n)     // want "call to .*label in hot path stepTwice reaches an allocation: fmt.Sprint call at .*hotalloc/a.go:53 .*stepTwice → .*label.$"
	label(n + 1) // want "call to .*label in hot path stepTwice reaches an allocation: fmt.Sprint call"
}
