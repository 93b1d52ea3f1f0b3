package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis/callgraph"
)

// Lockorder lifts lockhold's per-function must-hold state into a
// global lock-acquisition-order graph and reports every cycle as a
// deadlock risk, with both (or all) acquisition paths spelled out.
//
// Nodes are mutexes keyed by declaration identity: the struct-field
// object for `m.mu` (so shard.mu is one node no matter how many
// receivers or packages touch it), the variable object for package
// and local mutexes. An edge A → B is added whenever B is acquired at
// a point where A is provably held — directly inside one function, or
// across call edges: if f holds A when it calls g, every lock g (or
// anything g transitively calls on the same goroutine) acquires gets
// an edge from A, with the call chain recorded as the witness.
//
// `go` statements do not propagate held state: the spawned goroutine
// does not run while the caller's critical section blocks on it, so a
// cross-goroutine edge would manufacture false cycles. Two instances
// of the same field (sess1.mu, sess2.mu) collapse to one node, so
// hand-over-hand locking over siblings is invisible — a documented
// soundness trade against flooding every per-item lock with
// self-cycles.
//
// `// ew:allow lockorder` on an acquisition or call site drops the
// edges that site generates, with a justifying comment.
type Lockorder struct{}

func (Lockorder) Name() string { return "lockorder" }
func (Lockorder) Doc() string {
	return "global lock-acquisition-order cycles (deadlock risk) across serve/ws mutexes"
}

// Match accepts every package: lock identity is global, and a cycle
// may close through a package the serve tree merely calls into.
func (Lockorder) Match(path string) bool { return true }

// lockNode is one mutex in the order graph.
type lockNode struct {
	key  any    // types.Object when resolved, fallback string otherwise
	name string // display name: "serve.shard.mu"
}

// orderEdge records A → B with its first witness.
type orderEdge struct {
	from, to *lockNode
	pos      token.Position
	desc     string
}

// acqSite is one direct lock acquisition inside a function body.
type acqSite struct {
	node *lockNode
	op   string // Lock or RLock
	pos  token.Position
}

// acqWitness traces how a lock is (transitively) acquired from some
// function: the call chain walked and the final acquisition site.
type acqWitness struct {
	node  *lockNode
	op    string
	chain []string // callee names walked, outermost first; empty = direct
	pos   token.Position
}

type lockorderState struct {
	mod   *Module
	graph *callgraph.Graph
	nodes map[any]*lockNode
	edges map[[2]any]*orderEdge

	// per call-graph node facts
	direct  map[*callgraph.Node][]acqSite
	heldAt  map[*callgraph.Node]map[ast.Node][]string // site → held keys
	idents  map[*callgraph.Node]map[string]*lockNode  // held-key → lock identity
	reaches map[*callgraph.Node]map[any]*acqWitness   // transitive acquisitions
}

func (l Lockorder) RunModule(mod *Module) []Finding {
	st := &lockorderState{
		mod:     mod,
		graph:   mod.Graph(),
		nodes:   make(map[any]*lockNode),
		edges:   make(map[[2]any]*orderEdge),
		direct:  make(map[*callgraph.Node][]acqSite),
		heldAt:  make(map[*callgraph.Node]map[ast.Node][]string),
		idents:  make(map[*callgraph.Node]map[string]*lockNode),
		reaches: make(map[*callgraph.Node]map[any]*acqWitness),
	}

	fnNodes := st.graph.Nodes()
	// Pass 1: per-function walks — direct acquisitions, held-at-site
	// tables, and direct (intra-function) order edges.
	for _, fn := range fnNodes {
		st.scanFunc(fn)
	}
	// Pass 2: transitive acquisition sets, to a fixpoint over the call
	// graph (which may itself be cyclic through recursion).
	st.propagate(fnNodes)
	// Pass 3: cross-call edges — a call made while holding A reaches
	// everything the callee transitively acquires.
	for _, fn := range fnNodes {
		st.crossEdges(fn)
	}
	return st.findCycles()
}

// internLock returns the canonical node for a lock identity.
func (st *lockorderState) internLock(key any, name string) *lockNode {
	if n, ok := st.nodes[key]; ok {
		return n
	}
	n := &lockNode{key: key, name: name}
	st.nodes[key] = n
	return n
}

// scanFunc walks one function body with must-hold state, recording
// acquisitions, per-site held sets, and direct order edges.
func (st *lockorderState) scanFunc(fn *callgraph.Node) {
	pkg := st.mod.PackageFor(fn)
	if pkg == nil {
		return
	}
	body := fn.Body()
	idents := make(map[string]*lockNode)
	st.idents[fn] = idents
	held := make(map[ast.Node][]string)
	st.heldAt[fn] = held

	var seed []string
	if fn.Decl != nil {
		seed = HeldOnEntry(fn.Decl)
		for _, key := range seed {
			if ln := resolveHeldKey(st, pkg, fn.Decl, key); ln != nil {
				idents[key] = ln
			}
		}
	}

	walkHeldBody(pkg, body, seed, false, func(n ast.Node, heldSet heldSet) {
		heldKeys := heldSet.keys()
		// Walk the statement, stopping at function literals (they are
		// their own call-graph nodes) but recording the held set at every
		// potential edge site inside.
		ast.Inspect(n, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.FuncLit:
				held[c] = heldKeys
				return false
			case *ast.SelectorExpr:
				held[c] = heldKeys
				return true
			case *ast.CallExpr:
				held[c] = heldKeys
				if key, op, ok := lockCallInfo(pkg, c); ok && (op == "Lock" || op == "RLock") {
					st.acquire(fn, pkg, c, key, op, heldKeys, idents)
				}
				return true
			}
			return true
		})
	})
}

// acquire handles one direct Lock/RLock: resolve the lock's identity,
// record the acquisition, and add order edges from everything held.
func (st *lockorderState) acquire(fn *callgraph.Node, pkg *Package, call *ast.CallExpr, key, op string, heldKeys []string, idents map[string]*lockNode) {
	sel := call.Fun.(*ast.SelectorExpr) // shape checked by lockCallInfo
	ln := st.resolveLockExpr(pkg, sel.X)
	if ln == nil {
		// Unresolvable expression (map index, call result): fall back to
		// a package+key identity so at least same-package repeats unify.
		ln = st.internLock("str:"+pkg.Path+"."+key, pkg.Types.Name()+"."+key)
	}
	idents[key] = ln
	pos := posOf(pkg, call.Pos())
	st.direct[fn] = append(st.direct[fn], acqSite{node: ln, op: op, pos: pos})
	if pkg.Notes.Allowed(call.Pos(), "lockorder") {
		return
	}
	for _, hk := range heldKeys {
		from := idents[hk]
		if from == nil || from == ln {
			continue
		}
		st.addEdge(from, ln, pos, fmt.Sprintf("%s %sed at %s:%d while holding %s (in %s)",
			ln.name, op, shortPath(pos.Filename), pos.Line, from.name, fn.Name()))
	}
}

// crossEdges adds A → B edges for every call made while holding A to a
// callee transitively acquiring B. `go` edges are skipped: a spawned
// goroutine's acquisitions are not ordered under the caller's locks.
func (st *lockorderState) crossEdges(fn *callgraph.Node) {
	pkg := st.mod.PackageFor(fn)
	if pkg == nil {
		return
	}
	held := st.heldAt[fn]
	idents := st.idents[fn]
	for _, e := range st.graph.Out(fn) {
		if e.Kind == callgraph.KindGo {
			continue
		}
		heldKeys := held[e.Site]
		if len(heldKeys) == 0 {
			continue
		}
		if pkg.Notes.Allowed(e.Site.Pos(), "lockorder") {
			continue
		}
		callPos := posOf(pkg, e.Site.Pos())
		for _, w := range sortedWitnesses(st.reaches[e.Callee]) {
			for _, hk := range heldKeys {
				from := idents[hk]
				if from == nil || from.key == w.node.key {
					continue
				}
				chain := fn.Name() + " → " + e.Callee.Name()
				for _, c := range w.chain {
					chain += " → " + c
				}
				st.addEdge(from, w.node, callPos, fmt.Sprintf(
					"%s %sed at %s:%d via %s (call at %s:%d holds %s)",
					w.node.name, w.op, shortPath(w.pos.Filename), w.pos.Line,
					chain, shortPath(callPos.Filename), callPos.Line, from.name))
			}
		}
	}
}

// propagate computes each function's transitive acquisition set to a
// fixpoint, witnesses kept from the first (source-ordered) discovery.
func (st *lockorderState) propagate(fnNodes []*callgraph.Node) {
	for _, fn := range fnNodes {
		set := make(map[any]*acqWitness)
		for _, a := range st.direct[fn] {
			if _, ok := set[a.node.key]; !ok {
				set[a.node.key] = &acqWitness{node: a.node, op: a.op, pos: a.pos}
			}
		}
		st.reaches[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fnNodes {
			set := st.reaches[fn]
			for _, e := range st.graph.Out(fn) {
				if e.Kind == callgraph.KindGo {
					continue
				}
				for _, w := range sortedWitnesses(st.reaches[e.Callee]) {
					if _, ok := set[w.node.key]; ok {
						continue
					}
					chain := append([]string{e.Callee.Name()}, w.chain...)
					set[w.node.key] = &acqWitness{node: w.node, op: w.op, chain: chain, pos: w.pos}
					changed = true
				}
			}
		}
	}
}

// sortedWitnesses orders a witness set by lock name for deterministic
// edge creation.
func sortedWitnesses(set map[any]*acqWitness) []*acqWitness {
	out := make([]*acqWitness, 0, len(set))
	for _, w := range set {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].node.name < out[j].node.name })
	return out
}

func (st *lockorderState) addEdge(from, to *lockNode, pos token.Position, desc string) {
	k := [2]any{from.key, to.key}
	if _, ok := st.edges[k]; ok {
		return
	}
	st.edges[k] = &orderEdge{from: from, to: to, pos: pos, desc: desc}
}

// findCycles runs cycle detection over the order graph and renders one
// finding per strongly connected component, the shortest cycle through
// its first node spelled out edge by edge.
func (st *lockorderState) findCycles() []Finding {
	// Adjacency, deterministically ordered.
	adj := make(map[*lockNode][]*orderEdge)
	var nodes []*lockNode
	seen := make(map[*lockNode]bool)
	edges := make([]*orderEdge, 0, len(st.edges))
	for _, e := range st.edges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from.name != edges[j].from.name {
			return edges[i].from.name < edges[j].from.name
		}
		return edges[i].to.name < edges[j].to.name
	})
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e)
		for _, n := range []*lockNode{e.from, e.to} {
			if !seen[n] {
				seen[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].name < nodes[j].name })

	sccs := stronglyConnected(nodes, adj)
	var out []Finding
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue
		}
		inSCC := make(map[*lockNode]bool, len(scc))
		for _, n := range scc {
			inSCC[n] = true
		}
		sort.Slice(scc, func(i, j int) bool { return scc[i].name < scc[j].name })
		cycle := shortestCycle(scc[0], inSCC, adj)
		if cycle == nil {
			continue
		}
		names := make([]string, 0, len(cycle)+1)
		trail := make([]string, 0, len(cycle))
		for _, e := range cycle {
			names = append(names, e.from.name)
			trail = append(trail, e.desc)
		}
		names = append(names, cycle[0].from.name)
		out = append(out, Finding{
			Analyzer: "lockorder",
			Pos:      cycle[0].pos,
			Message: fmt.Sprintf("lock-order cycle (deadlock risk): %s — %s",
				joinArrow(names), joinSemicolon(trail)),
			Trail: trail,
		})
	}
	return out
}

// shortestCycle BFS-walks within one SCC from start back to start.
func shortestCycle(start *lockNode, inSCC map[*lockNode]bool, adj map[*lockNode][]*orderEdge) []*orderEdge {
	type step struct {
		node *lockNode
		path []*orderEdge
	}
	visited := map[*lockNode]bool{}
	queue := []step{{node: start}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range adj[cur.node] {
			if !inSCC[e.to] {
				continue
			}
			path := append(append([]*orderEdge{}, cur.path...), e)
			if e.to == start {
				return path
			}
			if visited[e.to] {
				continue
			}
			visited[e.to] = true
			queue = append(queue, step{node: e.to, path: path})
		}
	}
	return nil
}

// stronglyConnected is an iterative Tarjan over the lock graph.
func stronglyConnected(nodes []*lockNode, adj map[*lockNode][]*orderEdge) [][]*lockNode {
	index := make(map[*lockNode]int)
	low := make(map[*lockNode]int)
	onStack := make(map[*lockNode]bool)
	var stack []*lockNode
	var sccs [][]*lockNode
	next := 0

	type frame struct {
		node *lockNode
		edge int
	}
	for _, root := range nodes {
		if _, ok := index[root]; ok {
			continue
		}
		frames := []frame{{node: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.edge < len(adj[f.node]) {
				to := adj[f.node][f.edge].to
				f.edge++
				if _, ok := index[to]; !ok {
					index[to], low[to] = next, next
					next++
					stack = append(stack, to)
					onStack[to] = true
					frames = append(frames, frame{node: to})
				} else if onStack[to] && index[to] < low[f.node] {
					low[f.node] = index[to]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].node
				if low[f.node] < low[parent] {
					low[parent] = low[f.node]
				}
			}
			if low[f.node] == index[f.node] {
				var scc []*lockNode
				for {
					n := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[n] = false
					scc = append(scc, n)
					if n == f.node {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}

// resolveLockExpr maps a lock expression to its canonical identity:
// struct-field selectors key on the field object, plain identifiers on
// the variable object.
func (st *lockorderState) resolveLockExpr(pkg *Package, e ast.Expr) *lockNode {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel := pkg.Info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			field, ok := sel.Obj().(*types.Var)
			if !ok {
				return nil
			}
			return st.internLock(field, fieldDisplay(sel.Recv(), field))
		}
		// Package-qualified variable (pkg.Mu).
		if obj, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok {
			return st.internLock(obj, varDisplay(obj))
		}
	case *ast.Ident:
		obj := pkg.Info.Uses[e]
		if obj == nil {
			obj = pkg.Info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			return st.internLock(v, varDisplay(v))
		}
	case *ast.StarExpr:
		return st.resolveLockExpr(pkg, e.X)
	}
	return nil
}

// resolveHeldKey resolves an ew:holds key ("sess.mu") against a
// function's receiver and parameters to the same identity a direct
// acquisition of that lock would produce.
func resolveHeldKey(st *lockorderState, pkg *Package, decl *ast.FuncDecl, key string) *lockNode {
	parts := splitDots(key)
	if len(parts) == 0 {
		return nil
	}
	root := lookupParam(pkg, decl, parts[0])
	if root == nil {
		// A bare package-level mutex name.
		if len(parts) == 1 {
			if v, ok := pkg.Types.Scope().Lookup(parts[0]).(*types.Var); ok {
				return st.internLock(v, varDisplay(v))
			}
		}
		return nil
	}
	t := root.Type()
	var field *types.Var
	for _, name := range parts[1:] {
		obj, _, _ := types.LookupFieldOrMethod(t, true, pkg.Types, name)
		v, ok := obj.(*types.Var)
		if !ok {
			return nil
		}
		field = v
		t = v.Type()
	}
	if field == nil {
		return st.internLock(root, varDisplay(root))
	}
	return st.internLock(field, fieldDisplay(root.Type(), field))
}

// lookupParam finds a receiver or parameter variable by name.
func lookupParam(pkg *Package, decl *ast.FuncDecl, name string) *types.Var {
	var fields []*ast.Field
	if decl.Recv != nil {
		fields = append(fields, decl.Recv.List...)
	}
	if decl.Type.Params != nil {
		fields = append(fields, decl.Type.Params.List...)
	}
	for _, f := range fields {
		for _, id := range f.Names {
			if id.Name != name {
				continue
			}
			if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
				return v
			}
		}
	}
	return nil
}

// fieldDisplay renders "pkg.Type.field" for a struct-field lock.
func fieldDisplay(recv types.Type, field *types.Var) string {
	t := recv
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		pkgName := ""
		if named.Obj().Pkg() != nil {
			pkgName = named.Obj().Pkg().Name() + "."
		}
		return pkgName + named.Obj().Name() + "." + field.Name()
	}
	if field.Pkg() != nil {
		return field.Pkg().Name() + "." + field.Name()
	}
	return field.Name()
}

// varDisplay renders "pkg.name" for a package or local mutex variable.
func varDisplay(v *types.Var) string {
	if v.Pkg() != nil {
		return v.Pkg().Name() + "." + v.Name()
	}
	return v.Name()
}

func splitDots(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func joinArrow(parts []string) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += " → "
		}
		s += p
	}
	return s
}

func joinSemicolon(parts []string) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += "; "
		}
		s += p
	}
	return s
}

// shortPath trims an absolute filename to its last two path elements
// for readable witnesses ("serve/manager.go").
func shortPath(path string) string {
	slashes := 0
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			slashes++
			if slashes == 2 {
				return path[i+1:]
			}
		}
	}
	return path
}
