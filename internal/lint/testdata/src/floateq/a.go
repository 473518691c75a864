// Package floateq is a golden-test fixture for exact float comparisons.
package floateq

func cmp(a, b float64) bool {
	if a == b { // want "float == comparison; use a tolerance"
		return true
	}
	return a != b+1 // want "float != comparison; use a tolerance"
}

func cmp32(a, b float32) bool {
	return a == b // want "float == comparison; use a tolerance"
}

// intCmp compares integers and must not be flagged.
func intCmp(a, b int) bool { return a == b }

// constCmp folds to a constant at compile time and must not be flagged.
func constCmp() bool {
	const x = 1.5
	return x == 1.5
}

// zeroCmp compares against the constant zero, the sentinel and
// zero-divisor check, and must not be flagged in either operand order.
func zeroCmp(a float64, b float32) bool {
	const none = 0.0
	return a == 0 || 0 != b || a != none
}

// oneCmp compares against a non-zero constant and is still flagged.
func oneCmp(a float64) bool {
	return a == 1 // want "float == comparison; use a tolerance"
}
