// Package overlay builds the update-distribution infrastructures the paper
// evaluates (Section 4): the unicast star (provider directly connected to
// every server), the proximity-aware d-ary multicast tree (geographically
// close nodes attached under each other), and the hybrid supernode overlay
// of Section 5.2 (a k-ary proximity-aware tree of per-cluster supernodes,
// with cluster members in a star under their supernode).
package overlay

import (
	"fmt"

	"cdnconsistency/internal/audit"
	"cdnconsistency/internal/geo"
)

// NoParent marks the root in a Tree's parent array.
const NoParent = -1

// Tree is a rooted distribution tree over node indices. Index 0 is always
// the provider (root).
type Tree struct {
	parent   []int
	children [][]int
	depth    []int
}

// NumNodes returns the number of nodes including the root.
func (t *Tree) NumNodes() int { return len(t.parent) }

// Parent returns a node's parent index, or NoParent for the root.
func (t *Tree) Parent(i int) int { return t.parent[i] }

// Children returns a node's direct children. The returned slice is owned by
// the tree; callers must not mutate it.
func (t *Tree) Children(i int) []int { return t.children[i] }

// MaxDepth returns the largest node depth.
func (t *Tree) MaxDepth() int {
	max := 0
	for _, d := range t.depth {
		if d > max {
			max = d
		}
	}
	return max
}

// NewTreeFromParents builds a tree from an explicit parent array
// (parents[0] must be NoParent). Used by the hybrid overlay, which combines
// a supernode multicast tree with per-cluster stars.
func NewTreeFromParents(parents []int) (*Tree, error) {
	n := len(parents)
	if n == 0 {
		return nil, fmt.Errorf("overlay: empty parent array")
	}
	if parents[0] != NoParent {
		return nil, fmt.Errorf("overlay: node 0 must be the root")
	}
	t := &Tree{
		parent:   append([]int(nil), parents...),
		children: make([][]int, n),
		depth:    make([]int, n),
	}
	for i := 1; i < n; i++ {
		p := parents[i]
		if p < 0 || p >= n || p == i {
			return nil, fmt.Errorf("overlay: node %d has invalid parent %d", i, p)
		}
		t.children[p] = append(t.children[p], i)
	}
	t.recomputeDepths()
	// recomputeDepths only reaches nodes connected to the root; verify
	// connectivity via Validate (degree unbounded).
	if err := t.Validate(0, nil); err != nil {
		return nil, err
	}
	return t, nil
}

// BuildUnicastStar returns the unicast infrastructure: the provider (node 0)
// is directly connected to servers 1..n.
func BuildUnicastStar(n int) (*Tree, error) {
	if n < 0 {
		return nil, fmt.Errorf("overlay: negative server count %d", n)
	}
	t := &Tree{
		parent:   make([]int, n+1),
		children: make([][]int, n+1),
		depth:    make([]int, n+1),
	}
	t.parent[0] = NoParent
	for i := 1; i <= n; i++ {
		t.parent[i] = 0
		t.depth[i] = 1
		t.children[0] = append(t.children[0], i)
	}
	return t, nil
}

// BuildMulticast builds a proximity-aware degree-bounded multicast tree over
// locs, where locs[0] is the provider/root. Nodes join in index order, each
// attaching to the geographically nearest node that still has spare degree —
// the paper's newly-joined-supernode rule (Section 5.2) applied to the whole
// tree. The root also honors the degree bound.
func BuildMulticast(locs []geo.Point, degree int) (*Tree, error) {
	if len(locs) == 0 {
		return nil, fmt.Errorf("overlay: no nodes")
	}
	if degree < 1 {
		return nil, fmt.Errorf("overlay: degree %d < 1", degree)
	}
	n := len(locs)
	t := &Tree{
		parent:   make([]int, n),
		children: make([][]int, n),
		depth:    make([]int, n),
	}
	t.parent[0] = NoParent
	for i := 1; i < n; i++ {
		best := -1
		bestD := 0.0
		for j := 0; j < i; j++ {
			if len(t.children[j]) >= degree {
				continue
			}
			d := geo.DistanceKm(locs[i], locs[j])
			if best == -1 || d < bestD {
				best, bestD = j, d
			}
		}
		if best == -1 {
			// Cannot happen: a degree-d tree over i nodes always has a
			// node with spare capacity (it has at most i-1 edges).
			return nil, fmt.Errorf("overlay: no parent with spare degree for node %d", i)
		}
		t.parent[i] = best
		t.children[best] = append(t.children[best], i)
		t.depth[i] = t.depth[best] + 1
	}
	return t, nil
}

// BuildRandomMulticast is the proximity-ablation variant: same join order
// and degree bound, but each node attaches to the first (lowest-index) node
// with spare degree rather than the nearest. Used to quantify what
// proximity-awareness saves (DESIGN.md ablation 3).
func BuildRandomMulticast(n, degree int) (*Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("overlay: need at least the root")
	}
	if degree < 1 {
		return nil, fmt.Errorf("overlay: degree %d < 1", degree)
	}
	t := &Tree{
		parent:   make([]int, n),
		children: make([][]int, n),
		depth:    make([]int, n),
	}
	t.parent[0] = NoParent
	next := 0
	for i := 1; i < n; i++ {
		for len(t.children[next]) >= degree {
			next++
		}
		t.parent[i] = next
		t.children[next] = append(t.children[next], i)
		t.depth[i] = t.depth[next] + 1
	}
	return t, nil
}

// Add attaches a new node (the last index after growing the arrays) to the
// nearest live node with spare degree — the paper's newly-joined-supernode
// rule. It returns the new node's index.
func (t *Tree) Add(loc geo.Point, locs []geo.Point, degree int, alive []bool) (int, []geo.Point, []bool, error) {
	if degree < 1 {
		return 0, nil, nil, fmt.Errorf("overlay: degree %d < 1", degree)
	}
	if len(locs) != len(t.parent) || len(alive) != len(t.parent) {
		return 0, nil, nil, fmt.Errorf("overlay: locs/alive length mismatch")
	}
	best := -1
	bestD := 0.0
	for j := range t.parent {
		if !alive[j] || len(t.children[j]) >= degree {
			continue
		}
		d := geo.DistanceKm(loc, locs[j])
		if best == -1 || d < bestD {
			best, bestD = j, d
		}
	}
	if best == -1 {
		return 0, nil, nil, fmt.Errorf("overlay: no live parent with spare degree")
	}
	idx := len(t.parent)
	t.parent = append(t.parent, best)
	t.children = append(t.children, nil)
	t.children[best] = append(t.children[best], idx)
	t.depth = append(t.depth, t.depth[best]+1)
	return idx, append(locs, loc), append(alive, true), nil
}

// Remove detaches a failed node and re-attaches each of its children (with
// their subtrees) to the nearest remaining live node with spare degree,
// implementing the paper's supernodes-having-lost-parents repair rule.
// The root cannot be removed. alive tracks prior removals; a node already
// marked dead but still wired into the tree (failure observed before the
// structure reacted, e.g. detected later via poll timeouts) can still be
// removed — only a node already detached is rejected.
func (t *Tree) Remove(failed int, locs []geo.Point, degree int, alive []bool) error {
	if failed <= 0 || failed >= len(t.parent) {
		return fmt.Errorf("overlay: cannot remove node %d", failed)
	}
	if len(locs) != len(t.parent) || len(alive) != len(t.parent) {
		return fmt.Errorf("overlay: locs/alive length mismatch")
	}
	if t.parent[failed] == NoParent && len(t.children[failed]) == 0 {
		return fmt.Errorf("overlay: node %d already removed", failed)
	}
	alive[failed] = false

	// Detach from parent.
	p := t.parent[failed]
	if p != NoParent {
		t.children[p] = removeChild(t.children[p], failed)
	}
	orphans := t.children[failed]
	t.children[failed] = nil
	t.parent[failed] = NoParent

	for _, o := range orphans {
		best := -1
		bestD := 0.0
		for j := 0; j < len(t.parent); j++ {
			if !alive[j] || j == o || len(t.children[j]) >= degree {
				continue
			}
			if inSubtree(t, o, j) {
				continue // attaching under a descendant would form a cycle
			}
			d := geo.DistanceKm(locs[o], locs[j])
			if best == -1 || d < bestD {
				best, bestD = j, d
			}
		}
		if best == -1 {
			return fmt.Errorf("overlay: no live parent for orphan %d", o)
		}
		t.parent[o] = best
		t.children[best] = append(t.children[best], o)
	}
	t.recomputeDepths()
	return nil
}

// Reattach re-joins a previously removed node after recovery: it attaches
// under the nearest live node with spare degree — the same rule a newly
// joined node follows — and marks it live again. The node must currently be
// removed (alive[node] false); its subtree, if Remove left one behind, rides
// along.
func (t *Tree) Reattach(node int, locs []geo.Point, degree int, alive []bool) error {
	if node <= 0 || node >= len(t.parent) {
		return fmt.Errorf("overlay: cannot reattach node %d", node)
	}
	if degree < 1 {
		return fmt.Errorf("overlay: degree %d < 1", degree)
	}
	if len(locs) != len(t.parent) || len(alive) != len(t.parent) {
		return fmt.Errorf("overlay: locs/alive length mismatch")
	}
	if alive[node] {
		return fmt.Errorf("overlay: node %d is already attached", node)
	}
	best := -1
	bestD := 0.0
	for j := range t.parent {
		if !alive[j] || j == node || len(t.children[j]) >= degree {
			continue
		}
		if inSubtree(t, node, j) {
			continue // attaching under a descendant would form a cycle
		}
		d := geo.DistanceKm(locs[node], locs[j])
		if best == -1 || d < bestD {
			best, bestD = j, d
		}
	}
	if best == -1 {
		return fmt.Errorf("overlay: no live parent with spare degree for node %d", node)
	}
	alive[node] = true
	t.parent[node] = best
	t.children[best] = append(t.children[best], node)
	t.recomputeDepths()
	return nil
}

func removeChild(children []int, c int) []int {
	out := children[:0]
	for _, x := range children {
		if x != c {
			out = append(out, x)
		}
	}
	return out
}

// inSubtree reports whether candidate lies in the subtree rooted at node.
func inSubtree(t *Tree, node, candidate int) bool {
	for candidate != NoParent {
		if candidate == node {
			return true
		}
		candidate = t.parent[candidate]
	}
	return false
}

func (t *Tree) recomputeDepths() {
	for i := range t.depth {
		t.depth[i] = 0
	}
	var walk func(i, d int)
	walk = func(i, d int) {
		t.depth[i] = d
		for _, c := range t.children[i] {
			walk(c, d+1)
		}
	}
	walk(0, 0)
}

// Validate checks structural invariants: node 0 is the only root, the
// structure is a connected acyclic tree over live nodes, degrees respect the
// bound, and parent/children agree. alive may be nil, meaning all nodes live.
//
// The structural half (root, degree, parent/children agreement, acyclic
// connectivity) is the shared audit.CheckTree predicate — the same property
// the runtime invariant auditor verifies during live runs — so offline tests
// and online audits cannot drift apart. Validate additionally checks the
// cached depth array, which is an overlay implementation detail the auditor
// does not see.
func (t *Tree) Validate(degree int, alive []bool) error {
	if v := audit.CheckTree(t, degree, alive, false); v != nil {
		return fmt.Errorf("overlay: %w", v)
	}
	isLive := func(i int) bool { return alive == nil || alive[i] }
	for i := range t.parent {
		if !isLive(i) {
			continue
		}
		for _, c := range t.children[i] {
			if t.depth[c] != t.depth[i]+1 {
				return fmt.Errorf("overlay: depth of %d is %d, parent depth %d", c, t.depth[c], t.depth[i])
			}
		}
	}
	return nil
}

// TotalEdgeKm sums the great-circle length of all live tree edges — the
// locality measure the proximity ablation compares.
func (t *Tree) TotalEdgeKm(locs []geo.Point, alive []bool) float64 {
	var sum float64
	for i := 1; i < len(t.parent); i++ {
		if alive != nil && !alive[i] {
			continue
		}
		if p := t.parent[i]; p != NoParent {
			sum += geo.DistanceKm(locs[i], locs[p])
		}
	}
	return sum
}
