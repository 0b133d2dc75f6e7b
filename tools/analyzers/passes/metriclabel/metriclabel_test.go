package metriclabel_test

import (
	"testing"

	"desword/tools/analyzers/analysistest"
	"desword/tools/analyzers/passes/metriclabel"
)

func TestMetricLabel(t *testing.T) {
	analysistest.Run(t, "testdata", metriclabel.Analyzer, "internal/metrics")
}
