// Exercises the //detlint:allow-package directive: a package-wide,
// justified suppression of one analyzer that must span every file of
// the package while leaving every other analyzer armed.
package allowpkg

//detlint:allow-package wallclock -- corpus stand-in for a daemon package whose domain is host timers

import (
	"time"
)

// Direct banned uses anywhere in this file are sanctioned package-wide.
func deadline(d time.Duration) time.Time {
	return time.Now().Add(d)
}

func arm(d time.Duration, f func()) *time.Timer {
	return time.AfterFunc(d, f)
}

// Other analyzers are not covered by the wallclock carve-out.
func leak(x float64) bool {
	return x == 0 // want `floating-point == comparison`
}
