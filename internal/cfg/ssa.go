package cfg

// DomInfo is the block order of a graph. It no longer holds dominance
// information (Build needs none); it keeps its name with ToSSA.
type DomInfo struct {
	// RPO is a reverse post-order of the blocks (all are reachable).
	RPO []int
	// RPONum[b] is b's position in RPO.
	RPONum []int
}

// ToSSA returns g's block order. Build already emits SSA, so ToSSA only
// walks the graph depth-first from the entry; it keeps its name and
// signature because Build → ToSSA → analyzer.Analyze is the pipeline the
// commands and the benchmark harness call.
func ToSSA(g *Graph) *DomInfo {
	n := len(g.Blocks)
	dom := &DomInfo{RPO: make([]int, n), RPONum: make([]int, n)}
	// Depth-first post-order from the entry, numbered from the back.
	visited := make([]bool, n)
	next := n
	var dfs func(int)
	dfs = func(b int) {
		visited[b] = true
		for _, s := range g.Blocks[b].Succs() {
			if !visited[s] {
				dfs(s)
			}
		}
		next--
		dom.RPO[next] = b
		dom.RPONum[b] = next
	}
	dfs(0)
	return dom
}
