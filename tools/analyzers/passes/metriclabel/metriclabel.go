// Package metriclabel hardens the metrics exposition surface.
//
// System invariant: internal/obs renders Prometheus text exposition;
// family names and label keys are emitted verbatim (only label values are
// escaped). A dynamic name or label key is therefore both an exposition
// injection vector and a cardinality bomb — one name per request would
// grow the registry without bound, since series live for the process
// lifetime. The analyzer requires, at every Registry.Counter/Gauge/
// Histogram call site: a compile-time constant metric name matching
// ^[a-z_]+$, compile-time constant label keys matching the same pattern,
// and a complete set of key/value pairs (the registry panics on odd label
// lists at runtime; this catches it at vet time). Label values may be
// dynamic — they are escaped at exposition and bounded by the caller.
package metriclabel

import (
	"go/ast"
	"regexp"

	"desword/tools/analyzers/analysis"
	"desword/tools/analyzers/internal/lintutil"
)

var nameRe = regexp.MustCompile(`^[a-z_]+$`)

// registryMethods maps method name → index of the first label argument.
var registryMethods = map[string]int{
	"Counter":   2, // (name, help, labels...)
	"Gauge":     2,
	"Histogram": 3, // (name, help, buckets, labels...)
}

var Analyzer = &analysis.Analyzer{
	Name: "metriclabel",
	Doc:  "obs metric names and label keys must be compile-time constants matching ^[a-z_]+$",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkCall(pass, call)
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := lintutil.Callee(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	labelStart, ok := registryMethods[fn.Name()]
	if !ok {
		return
	}
	recv := lintutil.ReceiverExpr(call)
	if recv == nil || !lintutil.IsPkgPathSuffixNamed(pass.TypesInfo.TypeOf(recv), "internal/obs", "Registry") {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	name, constant := lintutil.ConstString(pass.TypesInfo, call.Args[0])
	switch {
	case !constant:
		pass.Reportf(call.Args[0].Pos(),
			"metric name must be a compile-time constant; a dynamic name is an exposition injection vector and unbounded cardinality")
	case !nameRe.MatchString(name):
		pass.Reportf(call.Args[0].Pos(), "metric name %q must match %s", name, nameRe)
	}
	if labelStart >= len(call.Args) {
		return
	}
	if call.Ellipsis.IsValid() {
		pass.Reportf(call.Args[len(call.Args)-1].Pos(),
			"labels passed as a spread slice cannot be statically verified; spell the key/value pairs out")
		return
	}
	labels := call.Args[labelStart:]
	if len(labels)%2 != 0 {
		pass.Reportf(labels[len(labels)-1].Pos(),
			"odd label list (%d values); labels are alternating key, value pairs and the registry panics otherwise", len(labels))
	}
	for i := 0; i < len(labels); i += 2 {
		key, constant := lintutil.ConstString(pass.TypesInfo, labels[i])
		switch {
		case !constant:
			pass.Reportf(labels[i].Pos(),
				"metric label key must be a compile-time constant; dynamic keys are emitted unescaped in the exposition")
		case !nameRe.MatchString(key):
			pass.Reportf(labels[i].Pos(), "metric label key %q must match %s", key, nameRe)
		}
	}
}
