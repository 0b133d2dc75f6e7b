// Package guardedby turns "// guarded by mu" field comments into checked
// contracts: every read or write of an annotated struct field must happen
// while the named sibling mutex is held on the accessing path.
//
// Paper invariant: shared proof state — the connection pool's health
// window, the flight recorder's ring, the journal's active segment — is
// mutated by concurrent queries; the soundness of what the proxy serves
// assumes those structures never tear. The race detector only observes the
// schedules a test happens to produce; this pass proves the discipline
// on the CFG. The contract is written where the field is declared:
//
//	mu   sync.Mutex
//	ring []*Snapshot // guarded by mu
//
// and checked at every use: the lock-state dataflow (internal/lockflow)
// computes which mutexes are held at each statement, and an access to
// x.ring demands that x.mu is held there — exclusively for writes
// (including taking the field's address), at least read-locked for
// reads. A write under RLock alone is a finding of its own.
//
// Recognized escapes, so the annotation sweep stays honest instead of
// suppressed: accesses through a variable the function itself
// constructed (p := &Pool{...}; p.ring = ... — nothing else can see p
// yet); fields of a sync/atomic type and plain fields accessed through
// sync/atomic calls (atomic.AddUint64(&x.n, 1)); methods named *Locked,
// checked as if every mutex field of their receiver were held — the
// caller-holds-the-lock helper convention; and _test.go files, where
// single-threaded inspection is legitimate and `make race` covers the
// rest. Function literals inherit the lock state at their position —
// a sort.Slice comparator running under the enclosing RLock is fine —
// except a literal launched by `go`, which runs concurrently and starts
// with nothing held. A "guarded by" comment naming a sibling that does
// not exist or is not a mutex is itself reported, so contracts cannot
// rot.
package guardedby

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"desword/tools/analyzers/analysis"
	"desword/tools/analyzers/internal/lintutil"
	"desword/tools/analyzers/internal/lockflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "guardedby",
	Doc:  "fields annotated `// guarded by mu` must only be accessed with the named mutex held",
	Run:  run,
}

// guardRe extracts the guard name. Guards are sibling field names, so
// plain identifiers only — prose like "guarded by mu." must not capture
// the sentence period.
var guardRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// guard is one field contract.
type guard struct {
	field  *types.Var // the annotated field
	name   string     // sibling mutex field name, e.g. "mu"
	strct  string     // struct type name, for messages
	atomic bool       // field's own type lives in sync/atomic
}

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			checkFunc(pass, guards, fd.Body, entryState(pass, fd), nil)
		}
	}
	return nil
}

// entryState seeds the locks a caller-holds-the-lock helper assumes: a
// method whose name ends in "Locked" is checked as if every mutex field
// of its receiver were held exclusively — the convention this module uses
// (rotateLocked, cacheInsertLocked) to mark helpers whose callers hold
// the lock, or exclusively own a value that has not escaped yet.
func entryState(pass *analysis.Pass, fd *ast.FuncDecl) lockflow.State {
	if !strings.HasSuffix(fd.Name.Name, "Locked") {
		return nil
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	recvIdent := fd.Recv.List[0].Names[0]
	if recvIdent.Name == "_" {
		return nil
	}
	v, ok := pass.TypesInfo.Defs[recvIdent].(*types.Var)
	if !ok {
		return nil
	}
	t := v.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var entry lockflow.State
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isMutex(f.Type()) {
			if entry == nil {
				entry = lockflow.State{}
			}
			entry[recvIdent.Name+"."+f.Name()] = lockflow.Lock{Kind: lockflow.Exclusive, Pos: fd.Name.Pos()}
		}
	}
	return entry
}

// collectGuards parses the field annotations of every struct declared in
// the package and validates that the named guard is a sibling mutex.
func collectGuards(pass *analysis.Pass) map[*types.Var]*guard {
	guards := make(map[*types.Var]*guard)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			siblings := make(map[string]*types.Var)
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						siblings[name.Name] = v
					}
				}
			}
			for _, fld := range st.Fields.List {
				gname, pos := guardComment(fld)
				if gname == "" {
					continue
				}
				mu, ok := siblings[gname]
				if !ok {
					pass.Reportf(pos, "guarded by %s: %s has no field %q", gname, ts.Name.Name, gname)
					continue
				}
				if !isMutex(mu.Type()) {
					pass.Reportf(pos, "guarded by %s: %s.%s is %s, not a sync mutex", gname, ts.Name.Name, gname, mu.Type())
					continue
				}
				for _, name := range fld.Names {
					v, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					guards[v] = &guard{field: v, name: gname, strct: ts.Name.Name, atomic: fromAtomic(v.Type())}
				}
			}
			return true
		})
	}
	return guards
}

// guardComment extracts the guard name from a field's line or doc comment.
func guardComment(fld *ast.Field) (string, token.Pos) {
	for _, cg := range []*ast.CommentGroup{fld.Comment, fld.Doc} {
		if cg == nil {
			continue
		}
		if m := guardRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1], cg.Pos()
		}
	}
	return "", 0
}

func isMutex(t types.Type) bool {
	return lintutil.IsNamed(t, "sync", "Mutex") || lintutil.IsNamed(t, "sync", "RWMutex")
}

// fromAtomic reports whether t is declared in sync/atomic (atomic.Uint64
// and friends carry their own synchronization).
func fromAtomic(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic"
}

func checkFunc(pass *analysis.Pass, guards map[*types.Var]*guard, body *ast.BlockStmt, entry lockflow.State, outerOwned map[types.Object]bool) {
	g, res := lockflow.Analyze(pass.TypesInfo, body, entry)
	owned := constructedLocals(pass.TypesInfo, body)
	for o := range outerOwned {
		owned[o] = true
	}
	for _, b := range g.Reachable() {
		if !res.Seen[b.Index] {
			continue
		}
		st := res.In[b.Index]
		for _, stmt := range b.Stmts {
			// Accesses are judged against the state *before* this
			// statement's own lock operations: `mu.Lock()` and a guarded
			// access never share a statement in practice, and pre-state
			// is the conservative choice.
			checkStmt(pass, guards, owned, stmt, st)
			checkLits(pass, guards, owned, stmt, st)
			for _, op := range lockflow.Ops(pass.TypesInfo, stmt) {
				st, _ = lockflow.Apply(st, op)
			}
		}
	}
}

// checkLits recurses into the function literals of one statement. A
// literal launched by `go` runs concurrently, so its body starts with no
// locks held; any other literal — a sort.Slice comparator, a defer body,
// a callback invoked in place — inherits the lock state at its position,
// since that is the state it observes when called synchronously.
func checkLits(pass *analysis.Pass, guards map[*types.Var]*guard, owned map[types.Object]bool, stmt ast.Stmt, st lockflow.State) {
	concurrent := make(map[*ast.FuncLit]bool)
	if g, ok := stmt.(*ast.GoStmt); ok {
		if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
			concurrent[lit] = true
		}
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// The range body's statements live in blocks of their own;
			// only the header belongs to this leaf.
			for _, sub := range []ast.Node{n.Key, n.Value, n.X} {
				if sub != nil {
					checkLits(pass, guards, owned, &ast.ExprStmt{X: sub.(ast.Expr)}, st)
				}
			}
			return false
		case *ast.FuncLit:
			entry := st
			if concurrent[n] {
				entry = nil
			}
			checkFunc(pass, guards, n.Body, entry, owned)
			return false // nested literals are reached through the recursion
		}
		return true
	})
}

// checkStmt verifies every guarded-field access in one statement.
func checkStmt(pass *analysis.Pass, guards map[*types.Var]*guard, owned map[types.Object]bool, stmt ast.Stmt, st lockflow.State) {
	writes := writeTargets(stmt)
	exempt := atomicArgs(pass.TypesInfo, stmt)
	lintutil.InspectLeaf(stmt, func(n ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
		if !ok || !v.IsField() {
			return
		}
		gd, ok := guards[v]
		if !ok || gd.atomic {
			return
		}
		if exempt[sel] {
			return
		}
		if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok && owned[pass.TypesInfo.Uses[base]] {
			return
		}
		key := types.ExprString(sel.X) + "." + gd.name
		lock := st[key]
		write := writes[sel]
		switch {
		case lock.Kind == lockflow.Exclusive:
			// Held exclusively: any access is fine.
		case lock.Kind == lockflow.Read:
			if write {
				pass.Reportf(sel.Pos(), "write to %s.%s while %s is only read-locked; writes need %s.Lock()",
					gd.strct, v.Name(), key, key)
			}
		case lock.Kind == lockflow.Maybe:
			pass.Reportf(sel.Pos(), "%s of %s.%s: %s is held on only some paths to this point",
				rw(write), gd.strct, v.Name(), key)
		default:
			pass.Reportf(sel.Pos(), "%s of %s.%s without holding %s (field is guarded by %s)",
				rw(write), gd.strct, v.Name(), key, gd.name)
		}
	})
}

func rw(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// writeTargets marks the selector expressions a statement mutates:
// assignment targets, inc/dec operands, and address-taken fields. The
// base of an index/star/selector chain is included — writing x.f[k] or
// *x.f mutates what x.f guards.
func writeTargets(stmt ast.Stmt) map[*ast.SelectorExpr]bool {
	writes := make(map[*ast.SelectorExpr]bool)
	mark := func(expr ast.Expr) {
		for {
			switch e := ast.Unparen(expr).(type) {
			case *ast.SelectorExpr:
				writes[e] = true
				return
			case *ast.IndexExpr:
				expr = e.X
			case *ast.StarExpr:
				expr = e.X
			case *ast.SliceExpr:
				expr = e.X
			default:
				return
			}
		}
	}
	lintutil.InspectLeaf(stmt, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		case *ast.RangeStmt:
			if n.Key != nil {
				mark(n.Key)
			}
			if n.Value != nil {
				mark(n.Value)
			}
		}
	})
	return writes
}

// atomicArgs collects the guarded selectors accessed as &x.f arguments of
// sync/atomic calls — those accesses carry their own synchronization.
func atomicArgs(info *types.Info, stmt ast.Stmt) map[*ast.SelectorExpr]bool {
	exempt := make(map[*ast.SelectorExpr]bool)
	lintutil.InspectLeaf(stmt, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := lintutil.Callee(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return
		}
		for _, arg := range call.Args {
			if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
				if sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr); ok {
					exempt[sel] = true
				}
			}
		}
	})
	return exempt
}

// constructedLocals finds the variables this function initialized from a
// fresh composite literal or new() — the constructor idiom, where the
// value has not escaped to another goroutine yet.
func constructedLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	owned := make(map[types.Object]bool)
	lintutil.InspectNoFuncLit(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if isFreshValue(n.Rhs[i]) {
					if obj := info.Defs[id]; obj != nil {
						owned[obj] = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if i < len(n.Values) && isFreshValue(n.Values[i]) {
					if obj := info.Defs[id]; obj != nil {
						owned[obj] = true
					}
				}
			}
		}
	})
	return owned
}

// isFreshValue recognizes &T{...}, T{...}, and new(T).
func isFreshValue(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			return id.Name == "new"
		}
	}
	return false
}
