package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Lockhold flags blocking operations reachable while a sync.Mutex or
// sync.RWMutex is held in the serving-layer packages. A lock-held
// blocking call turns one slow client into a service-wide stall: every
// other goroutine queueing on the same mutex inherits the wait. The
// blocking set is: channel sends/receives and selects without a
// default, time.Sleep, sync WaitGroup/Cond waits, pipeline
// Stream.Feed/Flush (a full DSP pass), and network/file IO.
//
// Deliberate exceptions carry `// ew:allow lockhold` with a
// justification (e.g. a send on a buffered reply channel that by
// construction never blocks).
type Lockhold struct{}

func (Lockhold) Name() string { return "lockhold" }
func (Lockhold) Doc() string {
	return "blocking operation (channel, sleep, Stream.Feed, IO) while a mutex is held"
}

func (Lockhold) Match(path string) bool {
	return pathContains(path, "internal/serve") ||
		isFixturePath(path, "lockhold")
}

func (l Lockhold) Run(pkg *Package) []Finding {
	var out []Finding
	report := func(pos ast.Node, held heldSet, what string) {
		if pkg.Notes.Allowed(pos.Pos(), l.Name()) {
			return
		}
		out = append(out, Finding{
			Analyzer: l.Name(),
			Pos:      pkg.Fset.Position(pos.Pos()),
			Message:  fmt.Sprintf("%s while holding %s", what, held),
		})
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			WalkHeld(pkg, fn, func(n ast.Node, held heldSet) {
				if len(held) == 0 {
					return
				}
				if sel, ok := n.(*ast.SelectStmt); ok {
					if !hasDefaultClause(sel.Body) {
						report(sel, held, "select with no default may block")
					}
					return
				}
				inspectNoFuncLit(n, func(c ast.Node) bool {
					switch c := c.(type) {
					case *ast.SendStmt:
						report(c, held, "channel send may block")
					case *ast.UnaryExpr:
						if c.Op.String() == "<-" {
							report(c, held, "channel receive may block")
						}
					case *ast.CallExpr:
						if what, blocking := blockingCall(pkg, c); blocking {
							report(c, held, what)
						}
					}
					return true
				})
			})
		}
	}
	return out
}

// blockingCall classifies a call as potentially blocking for lockhold.
func blockingCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	obj := calleeObject(pkg, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	name := fn.Name()
	if recv := recvNamed(fn); recv != nil {
		recvPkg := ""
		if recv.Obj().Pkg() != nil {
			recvPkg = recv.Obj().Pkg().Path()
		}
		switch {
		case recvPkg == "sync" && name == "Wait":
			return "sync." + recv.Obj().Name() + ".Wait may block", true
		case pathHasSuffix(recvPkg, "internal/pipeline") && recv.Obj().Name() == "Stream" &&
			(name == "Feed" || name == "Flush"):
			return "pipeline Stream." + name + " (full DSP pass) runs", true
		case strings.HasPrefix(recvPkg, "net"):
			return "network call " + recv.Obj().Name() + "." + name + " runs", true
		}
		return "", false
	}
	if fn.Pkg() == nil {
		return "", false
	}
	switch pkgPath := fn.Pkg().Path(); {
	case pkgPath == "time" && name == "Sleep":
		return "time.Sleep runs", true
	case strings.HasPrefix(pkgPath, "net"):
		return "network call " + pkgPath + "." + name + " runs", true
	case pkgPath == "os" && (name == "Open" || name == "Create" || name == "OpenFile" ||
		name == "ReadFile" || name == "WriteFile" || name == "Pipe"):
		return "file IO os." + name + " runs", true
	case pkgPath == "io" && name == "ReadAll":
		return "io.ReadAll runs", true
	case pkgPath == "os/exec":
		return "subprocess call runs", true
	}
	return "", false
}

// calleeObject resolves the object a call invokes, if it is a named
// function or method.
func calleeObject(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[fun.Sel]
	}
	return nil
}

// recvNamed returns the named type of a method's receiver (behind a
// pointer), or nil for plain functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// pathContains reports whether sub occurs in path at a path-segment
// boundary ("internal/serve" matches "repro/internal/serve" but not
// "repro/internal/server").
func pathContains(path, sub string) bool {
	return strings.Contains("/"+path+"/", "/"+sub+"/")
}
