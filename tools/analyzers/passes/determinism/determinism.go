// Package determinism keeps proof generation and verification free of
// nondeterminism sources.
//
// Paper invariant: EDB-commit, EDB-prove and EDB-verify are pure functions
// of (CRS, database, key). Two honest parties replaying the same inputs
// must produce byte-identical commitments and reach identical verdicts —
// the audit log and the incentive mechanism depend on it. Wall-clock reads
// (time.Now/Since/Until) and Go's randomized map iteration order are the
// two ways nondeterminism has crept into such code paths in practice, so
// inside the proof packages the analyzer forbids direct wall-clock calls
// and flags range-over-map loops whose bodies produce order-dependent
// output (appending to a slice that is never subsequently sorted in the
// same function, writing to a Write-style sink, or building a string).
// Order-independent map loop bodies — populating another map, counting —
// are fine.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"desword/tools/analyzers/analysis"
	"desword/tools/analyzers/internal/lintutil"
)

var enforced = regexp.MustCompile(`(^|/)internal/(zkedb|qmercurial|mercurial|chlmr|rsavc|group|poc)(/|$)`)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock reads and order-dependent map iteration in proof generation/verification",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !enforced.MatchString(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			checkFunc(pass, fn)
			return true
		})
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callee := lintutil.Callee(pass.TypesInfo, n)
			for _, name := range []string{"Now", "Since", "Until"} {
				if lintutil.IsFunc(callee, "time", name) {
					pass.Reportf(n.Pos(),
						"time.%s in a proof package; proof generation/verification must be a pure function of (CRS, db, key) — move timing to the caller or an obs.Stage",
						name)
				}
			}
		case *ast.RangeStmt:
			checkMapRange(pass, fn, n)
		}
		return true
	})
}

// checkMapRange flags a range over a map whose body emits order-dependent
// output.
func checkMapRange(pass *analysis.Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// append(target, ...) is order-dependent unless target is
			// sorted later in the same function.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				if obj := pass.TypesInfo.Uses[id]; obj == types.Universe.Lookup("append") && len(n.Args) > 0 {
					target := types.ExprString(ast.Unparen(n.Args[0]))
					if !sortedLater(pass, fn, rng.End(), target) {
						pass.Reportf(n.Pos(),
							"append to %s inside range over map: slice order depends on map iteration order; sort %s afterwards or iterate sorted keys",
							target, target)
					}
				}
			}
			// Writes to an io.Writer-shaped sink (hash.Hash included)
			// serialize elements in iteration order.
			if callee := lintutil.Callee(pass.TypesInfo, n); callee != nil {
				switch callee.Name() {
				case "Write", "WriteString", "WriteByte", "WriteRune":
					if lintutil.ReceiverExpr(n) != nil {
						pass.Reportf(n.Pos(),
							"%s inside range over map writes elements in map iteration order; iterate sorted keys", callee.Name())
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if lt := pass.TypesInfo.TypeOf(n.Lhs[0]); lt != nil {
					if b, ok := lt.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						pass.Reportf(n.Pos(),
							"string built inside range over map depends on map iteration order; iterate sorted keys")
					}
				}
			}
		}
		return true
	})
}

// sortFuncs are the sort entry points that make a previously appended
// slice order-independent again.
var sortFuncs = map[string]bool{
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true,
	"sort.Stable": true, "sort.Strings": true, "sort.Ints": true,
	"sort.Float64s": true,
	"slices.Sort":   true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// sortedLater reports whether fn sorts target (by expression identity)
// somewhere after pos.
func sortedLater(pass *analysis.Pass, fn *ast.FuncDecl, pos token.Pos, target string) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		callee := lintutil.Callee(pass.TypesInfo, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		if !sortFuncs[callee.Pkg().Name()+"."+callee.Name()] {
			return true
		}
		if types.ExprString(ast.Unparen(call.Args[0])) == target {
			found = true
			return false
		}
		return true
	})
	return found
}
