package cfg

// SSA construction: Build has placed the φs and recorded the dominator
// tree; ToSSA orders the blocks and renames along that tree (Cytron et
// al.).

// DomInfo is the block order and dominator tree of a graph.
type DomInfo struct {
	// RPO is a reverse post-order of the blocks (all are reachable).
	RPO []int
	// RPONum[b] is b's position in RPO.
	RPONum []int
	// Children[b] are the dominator-tree children of b, in ascending id.
	Children [][]int
}

// ToSSA converts g (in place) to SSA form and returns its block order and
// dominator tree. After conversion, EVar ids refer to SSA values, each
// defined exactly once; value 0 is reserved for "undef".
func ToSSA(g *Graph) *DomInfo {
	if g.InSSA {
		panic("cfg: already in SSA form")
	}
	n := len(g.Blocks)
	dom := &DomInfo{RPO: make([]int, n), RPONum: make([]int, n), Children: g.children}
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
	rename(g, dom)
	g.InSSA = true
	return dom
}

// renamer carries the state of the dominator-tree renaming walk.
type renamer struct {
	g        *Graph
	dom      *DomInfo
	stacks   [][]int
	phiSrc   map[phiKey]int
	oldNames []string
}

type phiKey struct{ block, idx int }

// rename walks the dominator tree renaming variables to fresh SSA values.
func rename(g *Graph, dom *DomInfo) {
	r := &renamer{
		g:        g,
		dom:      dom,
		stacks:   make([][]int, g.NumVars),
		phiSrc:   map[phiKey]int{},
		oldNames: g.VarName,
	}
	// SSA value table; value 0 is undef.
	g.NumVars = 1
	g.VarName = []string{"undef"}
	r.walk(0)
}

func (r *renamer) newVal(src int) int {
	id := r.g.NumVars
	r.g.NumVars++
	r.g.VarName = append(r.g.VarName, r.oldNames[src])
	return id
}

func (r *renamer) top(v int) int {
	s := r.stacks[v]
	if len(s) == 0 {
		return 0 // undef
	}
	return s[len(s)-1]
}

func (r *renamer) rewrite(e Expr) Expr {
	switch e := e.(type) {
	case EVar:
		t := r.top(e.ID)
		if t == 0 {
			return EUndef{}
		}
		return EVar{ID: t}
	case EBin:
		return EBin{Op: e.Op, L: r.rewrite(e.L), R: r.rewrite(e.R)}
	case EUn:
		return EUn{Op: e.Op, E: r.rewrite(e.E)}
	default:
		return e
	}
}

func (r *renamer) walk(b int) {
	blk := r.g.Blocks[b]
	pushed := map[int]int{} // source var -> push count in this block
	for i, in := range blk.Instrs {
		switch in := in.(type) {
		case IPhi:
			nv := r.newVal(in.Var)
			r.stacks[in.Var] = append(r.stacks[in.Var], nv)
			pushed[in.Var]++
			r.phiSrc[phiKey{b, i}] = in.Var
			blk.Instrs[i] = IPhi{Var: nv, Args: in.Args} // keep args filled by already-walked preds
		case IDef:
			ne := r.rewrite(in.E)
			nv := r.newVal(in.Var)
			r.stacks[in.Var] = append(r.stacks[in.Var], nv)
			pushed[in.Var]++
			blk.Instrs[i] = IDef{Var: nv, E: ne, FromSource: in.FromSource}
		case IAssume:
			blk.Instrs[i] = IAssume{E: r.rewrite(in.E), FromBranch: in.FromBranch}
		case IAssert:
			blk.Instrs[i] = IAssert{E: r.rewrite(in.E), ID: in.ID, Pos: in.Pos}
		}
	}
	if blk.Term.Kind == TermBranch {
		blk.Term.Cond = r.rewrite(blk.Term.Cond)
	}
	// Fill φ args in successors: the incoming value on the edge b → s is
	// whatever is on top of the source variable's stack at the end of b.
	for _, s := range blk.Succs() {
		sb := r.g.Blocks[s]
		for i, in := range sb.Instrs {
			phi, ok := in.(IPhi)
			if !ok {
				break // φs come first
			}
			src, renamed := r.phiSrc[phiKey{s, i}]
			if !renamed {
				// Successor not walked yet: the φ still carries its
				// source variable id.
				src = phi.Var
			}
			phi.Args = append(phi.Args, PhiArg{Pred: b, Var: r.top(src)})
			sb.Instrs[i] = phi
		}
	}
	for _, c := range r.dom.Children[b] {
		r.walk(c)
	}
	for v, n := range pushed {
		r.stacks[v] = r.stacks[v][:len(r.stacks[v])-n]
	}
}
