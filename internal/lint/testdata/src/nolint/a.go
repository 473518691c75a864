// Package nolint is a golden-test fixture for the suppression machinery
// itself: used suppressions silence exactly one line; unused, unknown and
// reason-less ones are reported under the unsuppressible "nolint"
// pseudo-analyzer.
package nolint

func suppressed(a, b float64) bool {
	return a == b //nolint:maya/floateq fixture: a used suppression produces no finding
}

func standalone(a, b float64) bool {
	//nolint:maya/floateq fixture: the standalone form covers the next line
	return a != b
}

func unused(a float64) float64 {
	a += 1 //nolint:maya/floateq nothing on this line to suppress // want "unused nolint suppression"
	return a
}

func unknown(a, b float64) bool {
	return a == b //nolint:maya/bogus no such analyzer // want "nolint names unknown analyzer maya/bogus" "float == comparison"
}

func reasonless(a, b float64) bool {
	// A bare suppression still silences the finding but is a finding of
	// its own. The want sits in a block comment before the directive, as
	// any prose after it would be the directive's reason.
	return a == b /* want "suppression of maya/floateq has no reason" */ //nolint:maya/floateq
}
