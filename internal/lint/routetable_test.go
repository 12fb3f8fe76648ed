package lint_test

import (
	"testing"

	"github.com/gitcite/gitcite/internal/lint"
	"github.com/gitcite/gitcite/internal/lint/linttest"
)

func TestRouteTable(t *testing.T) {
	linttest.Run(t, lint.RouteTable, "routefake/internal/hosting")
}
