package cfg

// Dominator computation using the iterative algorithm of Cooper, Harvey
// and Kennedy ("A Simple, Fast Dominance Algorithm"), plus dominance
// frontiers — the ingredients of SSA construction.

// DomInfo holds dominator information for a graph.
type DomInfo struct {
	// IDom[b] is the immediate dominator of block b (-1 for the entry and
	// unreachable blocks).
	IDom []int
	// RPO is a reverse post-order of the reachable blocks.
	RPO []int
	// RPONum[b] is b's position in RPO (-1 when unreachable).
	RPONum []int
	// Frontier[b] is the dominance frontier of block b.
	Frontier [][]int
	// Children[b] are the dominator-tree children of b.
	Children [][]int
}

// Dominators computes dominator information for g.
func Dominators(g *Graph) *DomInfo {
	n := len(g.Blocks)
	d := &DomInfo{
		IDom:     make([]int, n),
		RPONum:   make([]int, n),
		Frontier: make([][]int, n),
		Children: make([][]int, n),
	}
	for i := range d.IDom {
		d.IDom[i] = -1
		d.RPONum[i] = -1
	}
	// Depth-first post-order from the entry.
	visited := make([]bool, n)
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		visited[b] = true
		for _, s := range g.Blocks[b].Succs() {
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(0)
	for i := len(post) - 1; i >= 0; i-- {
		d.RPONum[post[i]] = len(d.RPO)
		d.RPO = append(d.RPO, post[i])
	}
	// Iterative dominator fixpoint.
	d.IDom[0] = 0
	for changed := true; changed; {
		changed = false
		for _, b := range d.RPO {
			if b == 0 {
				continue
			}
			newIDom := -1
			for _, p := range g.Blocks[b].Preds {
				if d.RPONum[p] == -1 || d.IDom[p] == -1 {
					continue // unreachable or not yet processed
				}
				if newIDom == -1 {
					newIDom = p
				} else {
					newIDom = d.intersect(p, newIDom)
				}
			}
			if newIDom != -1 && d.IDom[b] != newIDom {
				d.IDom[b] = newIDom
				changed = true
			}
		}
	}
	d.IDom[0] = -1 // entry has no immediate dominator
	// Dominator-tree children.
	for b, idom := range d.IDom {
		if idom >= 0 {
			d.Children[idom] = append(d.Children[idom], b)
		}
	}
	// Dominance frontiers (CHK).
	for _, b := range d.RPO {
		preds := g.Blocks[b].Preds
		if len(preds) < 2 {
			continue
		}
		for _, p := range preds {
			if d.RPONum[p] == -1 {
				continue
			}
			runner := p
			for runner != d.IDom[b] && runner != -1 {
				d.Frontier[runner] = appendUnique(d.Frontier[runner], b)
				if runner == 0 {
					break
				}
				runner = d.IDom[runner]
			}
		}
	}
	return d
}

// intersect walks up the dominator tree from two nodes to their common
// ancestor, comparing by RPO number.
func (d *DomInfo) intersect(a, b int) int {
	for a != b {
		for d.RPONum[a] > d.RPONum[b] {
			a = d.IDom[a]
		}
		for d.RPONum[b] > d.RPONum[a] {
			b = d.IDom[b]
		}
	}
	return a
}

// Dominates reports whether a dominates b (reflexively).
func (d *DomInfo) Dominates(a, b int) bool {
	for {
		if a == b {
			return true
		}
		if b == 0 || d.IDom[b] == -1 {
			return false
		}
		b = d.IDom[b]
	}
}

// Reachable reports whether b is reachable from the entry.
func (d *DomInfo) Reachable(b int) bool { return d.RPONum[b] != -1 }

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}
