package lint_test

import (
	"testing"

	"dcfguard/internal/lint"
	"dcfguard/internal/lint/linttest"
)

func TestWallclock(t *testing.T) {
	linttest.Run(t, "./internal/lint/testdata/src/wallclock", lint.Wallclock)
}

func TestFloateq(t *testing.T) {
	linttest.Run(t, "./internal/lint/testdata/src/floateq", lint.Floateq)
}

func TestHotalloc(t *testing.T) {
	linttest.Run(t, "./internal/lint/testdata/src/hotalloc", lint.Hotalloc)
}

func TestObshot(t *testing.T) {
	linttest.Run(t, "./internal/lint/testdata/src/obshot", lint.Obshot)
}

func TestShardmail(t *testing.T) {
	linttest.Run(t, "./internal/lint/testdata/src/shardmail", lint.Shardmail)
}

// TestDirectives drives every analyzer at once over the directive
// corpus: placement on the wrong line, unknown analyzer names, unknown
// verbs, and stacked/multi-name directives.
func TestDirectives(t *testing.T) {
	linttest.Run(t, "./internal/lint/testdata/src/directive", lint.All()...)
}

// TestAllowPackage drives every analyzer over the allow-package corpus:
// a package-wide justified wallclock carve-out spanning both files,
// with every other analyzer still armed.
func TestAllowPackage(t *testing.T) {
	linttest.Run(t, "./internal/lint/testdata/src/allowpkg", lint.All()...)
}

// TestStubsAreClean pins that the shared stub packages themselves
// produce no diagnostics, so their findings can never bleed into the
// corpora that import them.
func TestStubsAreClean(t *testing.T) {
	linttest.Run(t, "./internal/lint/testdata/src/sim", lint.All()...)
	linttest.Run(t, "./internal/lint/testdata/src/rng", lint.All()...)
}
