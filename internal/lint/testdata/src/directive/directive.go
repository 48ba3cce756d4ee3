// Exercises for the //detlint:allow directive parser: placement rules,
// stacking, and rejection of malformed directives.
package directive

import (
	"time"
)

func trailing(x float64) bool {
	return x == 0 //detlint:allow floateq -- trailing form covers its own line
}

func standalone(x float64) bool {
	//detlint:allow floateq -- standalone form covers the next line
	return x == 0
}

// Stacked standalone directives all cover the first non-directive line.
func stacked(x float64, deadline time.Time) bool {
	//detlint:allow floateq
	//detlint:allow wallclock
	return x == 0 && time.Now().Before(deadline)
}

// One directive may carry several analyzer names.
func multiName(x float64, deadline time.Time) bool {
	//detlint:allow floateq wallclock -- both violations live on the next line
	return x == 0 && time.Now().Before(deadline)
}

// A blank line between directive and target breaks the association: the
// directive covers the blank line, and the violation is still reported.
func wrongLine(x float64) bool {
	//detlint:allow floateq -- ineffective: not adjacent to the comparison

	return x == 0 // want `floating-point == comparison`
}

// Allowing a different analyzer does not suppress this one's finding.
func wrongName(x float64) bool {
	return x == 0 //detlint:allow wallclock // want `floating-point == comparison`
}

func unknownName(x float64) bool {
	//detlint:allow floateqq // want `unknown analyzer "floateqq"`
	return x == 0 // want `floating-point == comparison`
}

func missingName(x float64) bool {
	return x == 0 //detlint:allow // want `missing analyzer name` `floating-point == comparison`
}

func unknownVerb(x float64) bool {
	return x == 0 //detlint:ignore floateq // want `unknown detlint directive` `floating-point == comparison`
}

// allow-package requires a justification: without one the directive is
// rejected (and therefore suppresses nothing, so the violation below is
// still reported).
func barePackageDirective(deadline time.Time) bool {
	//detlint:allow-package wallclock // want `missing -- justification`
	return time.Now().Before(deadline) // want `reads the wall clock`
}

// Unknown analyzer names are rejected in allow-package form too.
func unknownPackageName(x float64) bool {
	//detlint:allow-package floateqq -- typo'd name // want `unknown analyzer "floateqq"`
	return x == 0 // want `floating-point == comparison`
}
