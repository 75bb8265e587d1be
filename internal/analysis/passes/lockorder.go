package passes

import (
	"go/token"
	"slices"
	"sort"
	"strings"
)

// LockCycle is one potential-deadlock cycle in a scenario's static
// lock-order graph.
type LockCycle struct {
	// Scope is the top-level function whose tasks form the cycle.
	Scope string
	// Expected is true when the scope carries //deltalint:deadlock-expected.
	Expected bool
	// Nodes are the canonical lock keys on the cycle ("res:1", "long:0").
	Nodes []string
	// Path is the human-readable witness, e.g.
	// "res:0(resVI) -> res:1(resIDCT) -> res:2(resDSP) -> res:0(resVI)".
	Path string
	// Pos anchors the report (the first edge's acquire site).
	Pos token.Pos
}

// LockOrderResult is the lockorder pass result, consumed by the
// static-vs-runtime cross-check tests.  It includes cycles suppressed by
// //deltalint:deadlock-expected.
type LockOrderResult struct {
	Cycles []LockCycle
}

// LockOrder returns the lockorder analyzer: it builds a per-scenario
// lock-order graph (an edge A→B for every site acquiring B while holding
// A, including the assumed both-order edges of batch requests) and reports
// every elementary cycle as a potential deadlock — the static counterpart
// of the runtime parallel deadlock detection unit.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc: "report cycles in the static lock-order graph of each scenario's tasks\n\n" +
			"An edge A->B is recorded whenever some task acquires lock B while\n" +
			"holding lock A.  A cycle means tasks can block each other forever\n" +
			"(the static mirror of the runtime DDU/PDDA).  Intentional deadlock\n" +
			"experiments are annotated //deltalint:deadlock-expected.",
		Run: runLockOrder,
	}
}

func runLockOrder(pass *Pass) (any, error) {
	rep := walkLocks(pass)
	res := &LockOrderResult{}
	for _, scope := range rep.scopes {
		cycles := findCycles(scope)
		res.Cycles = append(res.Cycles, cycles...)
		if scope.expected {
			continue
		}
		for _, c := range cycles {
			pass.Reportf(c.Pos,
				"potential deadlock: tasks of %s acquire locks in conflicting orders: %s (annotate the scenario //deltalint:deadlock-expected if intentional)",
				c.Scope, c.Path)
		}
	}
	sortCycles(res.Cycles)
	return res, nil
}

// sortCycles sorts cs in place by scope, then by the comma-joined node
// list.  Each cycle's key is joined once rather than inside every
// comparison: a dense scope can hold 10⁵ cycles.
func sortCycles(cs []LockCycle) {
	type keyed struct {
		LockCycle
		key string
	}
	ks := make([]keyed, len(cs))
	for i, c := range cs {
		ks[i] = keyed{c, strings.Join(c.Nodes, ",")}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].Scope != ks[j].Scope {
			return ks[i].Scope < ks[j].Scope
		}
		return ks[i].key < ks[j].key
	})
	for i := range ks {
		cs[i] = ks[i].LockCycle
	}
}

// findCycles enumerates the distinct simple cycles of a scope's lock-order
// graph.  Cycles are canonicalized (rotated to start at the smallest node)
// and reported once each.
//
// Lock keys are numbered in sorted order, so index order is key order.
// The DFS from each start node only extends through larger nodes, which
// finds every cycle exactly once, from its smallest node: the path is
// already canonical and, with duplicate-free adjacency, needs no dedup.
func findCycles(scope *lockScope) []LockCycle {
	display := map[string]string{}
	for _, e := range scope.edges {
		display[e.from.key] = e.from.display
		display[e.to.key] = e.to.display
	}
	keys := make([]string, 0, len(display))
	for k := range display {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	index := make(map[string]int, len(keys))
	for i, k := range keys {
		index[k] = i
	}
	// Adjacency over key indices; remember a witness edge per pair.
	adj := make([][]int, len(keys))
	edgeAt := map[[2]int]lockEdge{}
	for _, e := range scope.edges {
		from, to := index[e.from.key], index[e.to.key]
		adj[from] = append(adj[from], to)
		edgeAt[[2]int{from, to}] = e
	}
	for v := range adj {
		sort.Ints(adj[v])
		adj[v] = slices.Compact(adj[v])
	}

	var out []LockCycle
	var path []int
	onPath := make([]bool, len(keys))

	record := func() {
		// Self-edges cannot exist (addEdge drops them), but guard anyway.
		if len(path) < 2 {
			return
		}
		nodes := make([]string, len(path))
		var b strings.Builder
		for i, v := range path {
			nodes[i] = keys[v]
			b.WriteString(display[keys[v]])
			b.WriteString(" -> ")
		}
		b.WriteString(display[keys[path[0]]])
		pos := edgeAt[[2]int{path[0], path[1]}].pos
		if pos == token.NoPos {
			pos = scope.pos
		}
		out = append(out, LockCycle{
			Scope:    scope.fn,
			Expected: scope.expected,
			Nodes:    nodes,
			Path:     b.String(),
			Pos:      pos,
		})
	}

	var dfs func(start, cur int)
	dfs = func(start, cur int) {
		for _, next := range adj[cur] {
			if next == start {
				record()
				continue
			}
			// Only extend through nodes > start so each cycle is found
			// from its smallest node exactly once.
			if next < start || onPath[next] {
				continue
			}
			onPath[next] = true
			path = append(path, next)
			dfs(start, next)
			path = path[:len(path)-1]
			onPath[next] = false
		}
	}
	for v := range keys {
		onPath[v] = true
		path = append(path[:0], v)
		dfs(v, v)
		onPath[v] = false
	}
	sortCycles(out) // one scope: by node list
	return out
}
