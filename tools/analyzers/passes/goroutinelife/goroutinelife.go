// Package goroutinelife requires every goroutine started in the
// concurrency-heavy packages to be joinable or cancellable.
//
// Paper invariant: a proxy or participant that leaks goroutines under
// sustained query load eventually exhausts the process — and a goroutine
// nobody can stop keeps mutating shared proof state after shutdown has
// begun, which is exactly the window where the flight recorder's ring
// and journal get corrupted. In internal/{node,events,zkedb,poc} a `go`
// statement must therefore carry a lifecycle signal the launcher (or a
// test) can wait on or trigger:
//
//   - joinable: the body calls (*sync.WaitGroup).Done, or sends on /
//     closes a channel — someone can observe completion;
//   - cancellable: the body receives from a channel (a stop/done
//     channel, a ticker, ctx.Done()) or consults ctx.Err(), or ranges
//     over a channel — someone can make it return.
//
// A `go` of a named function or method is resolved within the package
// and its body scanned the same way; calls that pass a context, a
// *sync.WaitGroup, or a channel to a callee outside the package are
// assumed managed by the callee. Fire-and-forget `go` statements with
// none of these are findings. _test.go files are exempt: the test
// binary's lifetime bounds their goroutines.
package goroutinelife

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"desword/tools/analyzers/analysis"
	"desword/tools/analyzers/internal/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "goroutinelife",
	Doc:  "goroutines in the concurrency-heavy packages must be joinable or cancellable",
	Run:  run,
}

// enforced matches the packages under contract (suffix-matched so the
// analysistest fixtures model them as internal/...).
var enforced = regexp.MustCompile(`(^|/)internal/(node|events|zkedb|poc)(/|$)`)

func run(pass *analysis.Pass) error {
	if !enforced.MatchString(pass.Pkg.Path()) {
		return nil
	}
	// Index the package's own function bodies so `go c.loop()` can be
	// judged by what loop actually does.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if pass.InTestFile(g.Pos()) {
				return true
			}
			if !managed(pass.TypesInfo, decls, g.Call) {
				pass.Reportf(g.Pos(), "goroutine is neither joinable nor cancellable: no WaitGroup.Done, channel send/close/receive, or context check in its body")
			}
			return true
		})
	}
	return nil
}

// managed reports whether the goroutine launched by call carries a
// lifecycle signal.
func managed(info *types.Info, decls map[*types.Func]*ast.FuncDecl, call *ast.CallExpr) bool {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return bodySignals(info, lit.Body)
	}
	// Named function or method: a lifecycle handle among the arguments
	// (or the receiver chain) means the callee manages itself with it.
	for _, arg := range call.Args {
		if isLifecycleType(info.Types[arg].Type) {
			return true
		}
	}
	fn := lintutil.Callee(info, call)
	if fn == nil {
		return false
	}
	if fd, ok := decls[fn]; ok {
		return bodySignals(info, fd.Body)
	}
	return false
}

// bodySignals scans a goroutine body — including its nested literals,
// which run within the goroutine — for a join or cancellation signal.
func bodySignals(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true // completion/result signal someone can receive
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true // receives: stop channels, tickers, ctx.Done()
			}
		case *ast.RangeStmt:
			if t := info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true // drains until the channel closes
				}
			}
		case *ast.CallExpr:
			if isClose(n) {
				found = true
				return false
			}
			fn := lintutil.Callee(info, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch {
			case fn.Pkg().Path() == "sync" && fn.Name() == "Done":
				found = true // wg.Done: joinable
			case fn.Pkg().Path() == "context" && fn.Name() == "Err":
				found = true // polls cancellation
			}
		}
		return !found
	})
	return found
}

func isClose(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "close"
}

// isLifecycleType recognizes the handles whose presence in a call means
// the callee can be joined or cancelled: contexts, waitgroups, channels.
func isLifecycleType(t types.Type) bool {
	if t == nil {
		return false
	}
	if lintutil.IsContextType(t) {
		return true
	}
	if ptr, ok := t.(*types.Pointer); ok {
		if lintutil.IsNamed(ptr.Elem(), "sync", "WaitGroup") {
			return true
		}
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}
