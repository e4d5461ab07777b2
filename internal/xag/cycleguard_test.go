package xag

import (
	"math/rand"
	"testing"
)

// leafCone builds root = (a∧b) ∧ (c⊕d) over four inputs and returns the
// network with its inputs and the two inner gates.
func leafCone() (n *Network, root Lit, pis [4]Lit, g1, g2 Lit) {
	n = New()
	for i := range pis {
		pis[i] = n.AddPI("")
	}
	g1 = n.And(pis[0], pis[1])
	g2 = n.Xor(pis[2], pis[3])
	root = n.And(g1, g2)
	n.AddPO(root, "r")
	return n, root, pis, g1, g2
}

// TestLeavesInTFIIntactCut: every cut of an untouched cone lies strictly
// below its root; a leaf outside the cone, or the root itself, does not.
func TestLeavesInTFIIntactCut(t *testing.T) {
	n, root, pis, g1, g2 := leafCone()
	e := n.AddPI("e")
	var s TFIScratch
	for _, tc := range []struct {
		leaves []Lit
		want   bool
	}{
		{[]Lit{pis[0], pis[1], pis[2], pis[3]}, true},
		{[]Lit{g1, pis[2], pis[3]}, true},
		{[]Lit{g1, g2.Not()}, true},
		{[]Lit{pis[0]}, true},
		{nil, true},
		{[]Lit{pis[0], pis[1], e}, false},
		{[]Lit{g1, root}, false},
		{[]Lit{g1, g2, pis[0]}, false}, // pis[0] lies only below the leaf g1
	} {
		if got := n.LeavesInTFI(root.Node(), tc.leaves, 256, &s); got != tc.want {
			t.Errorf("LeavesInTFI(%v, %v) = %v, want %v", root, tc.leaves, got, tc.want)
		}
	}
	if n.LeavesInTFI(e.Node(), []Lit{pis[0]}, 256, &s) {
		t.Error("a primary input has a leaf below it")
	}
}

// TestLeavesInTFIBrokenCut: after a Substitute reshapes the root's cone, a
// leaf the root no longer depends on is not shown below it.
func TestLeavesInTFIBrokenCut(t *testing.T) {
	n, root, pis, _, g2 := leafCone()
	var s TFIScratch
	leaves := []Lit{pis[0], pis[1], pis[2], pis[3]}
	n.Substitute(g2.Node(), pis[2]) // root = (a∧b)∧c: d has left the cone
	if n.LeavesInTFI(root.Node(), leaves, 256, &s) {
		t.Fatal("leaf d shown below the root after the substitution removed it")
	}
	if n.InTFI(root, pis[3].Node()) {
		t.Fatal("reference walk still finds d under the root")
	}
	if !n.LeavesInTFI(root.Node(), leaves[:3], 256, &s) {
		t.Fatal("the surviving leaves a, b, c are not shown below the root")
	}
}

// TestLeavesInTFIBudget: the walk gives up after expanding budget gates, and
// stops expanding at leaves, so a leaf directly under the root needs none.
func TestLeavesInTFIBudget(t *testing.T) {
	n := New()
	x, y := n.AddPI("x"), n.AddPI("y")
	chain := x
	for i := 0; i < 20; i++ {
		chain = n.Xor(n.And(chain, y), y.Not())
	}
	n.AddPO(chain, "o")
	var s TFIScratch
	leaves := []Lit{x}
	if n.LeavesInTFI(chain.Node(), leaves, 5, &s) {
		t.Fatal("a leaf 40 gates deep was shown within a budget of 5")
	}
	if !n.LeavesInTFI(chain.Node(), leaves, 39, &s) {
		t.Fatal("a leaf 40 gates deep was not shown within a budget of 39")
	}
	if n.LeavesInTFI(chain.Node(), leaves, 38, &s) {
		t.Fatal("a leaf 40 gates deep was shown within a budget of 38")
	}
	f0, f1 := n.Fanins(chain.Node())
	if !n.LeavesInTFI(chain.Node(), []Lit{f0, f1}, 0, &s) {
		t.Fatal("the root's own fanins were not shown with a zero budget")
	}
}

// TestLeavesInTFIDuplicateLeaves: a repeated leaf is one leaf, found or not.
func TestLeavesInTFIDuplicateLeaves(t *testing.T) {
	n, root, pis, _, g2 := leafCone()
	e := n.AddPI("e")
	var s TFIScratch
	if !n.LeavesInTFI(root.Node(), []Lit{pis[0], pis[0].Not(), g2, pis[1], g2}, 256, &s) {
		t.Fatal("duplicated in-cone leaves not shown below the root")
	}
	if n.LeavesInTFI(root.Node(), []Lit{e, pis[0], e}, 256, &s) {
		t.Fatal("a duplicated out-of-cone leaf was shown below the root")
	}
}

// TestLeavesInTFIAllocFree: once the scratch has grown to the network, a
// query allocates nothing, and queries interleave freely with InTFIScratch.
func TestLeavesInTFIAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	n := randomDirtyNet(rng, 6, 80)
	ids := n.LiveNodes()
	root := ids[len(ids)-1]
	f0, f1 := n.Fanins(root)
	leaves := []Lit{f0, f1, n.PI(0)}
	var s TFIScratch
	n.LeavesInTFI(root, leaves, 256, &s) // warm
	allocs := testing.AllocsPerRun(100, func() {
		n.LeavesInTFI(root, leaves, 256, &s)
		n.InTFIScratch(MakeLit(root, false), 1, &s)
	})
	if allocs != 0 {
		t.Fatalf("warmed LeavesInTFI allocates %.1f times per query, want 0", allocs)
	}
}

// coneWithin walks the cone of l down to the leaves. ok is false when the
// cone reaches an input or constant that is not a leaf; otherwise hitRoot
// reports whether the cone contains root. It mirrors the rewriting engine's
// per-replacement truth-table walk.
func coneWithin(n *Network, l Lit, leaves []Lit, root int) (ok, hitRoot bool) {
	isLeaf := map[int]bool{}
	for _, x := range leaves {
		isLeaf[x.Node()] = true
	}
	seen := map[int]bool{}
	var walk func(id int) bool
	walk = func(id int) bool {
		if isLeaf[id] || seen[id] {
			return true
		}
		if !n.IsGate(id) {
			return id == 0
		}
		seen[id] = true
		if id == root {
			hitRoot = true
		}
		f0, f1 := n.Fanins(id)
		return walk(f0.Node()) && walk(f1.Node())
	}
	ok = walk(n.Resolve(l).Node())
	return ok, ok && hitRoot
}

// FuzzCycleGuard: on a random XAG after random legal substitutions, pick a
// live root, a cut-like leaf set grown from the root's current cone (with an
// occasional foreign node), and a literal built over the leaves, the cone
// and the root. Whenever the literal's cone stays within the leaves and
// LeavesInTFI shows every leaf below the root, the cone-only answer must
// equal InTFI — the exact check the bounded cycle guard replaces. A true
// LeavesInTFI must also be sound leaf by leaf.
func FuzzCycleGuard(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(4), uint8(20))
	f.Add(int64(7), uint8(120), uint8(12), uint8(3))
	f.Add(int64(42), uint8(8), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, gates, subs, budget uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := randomDirtyNet(rng, 2+rng.Intn(6), 1+int(gates))
		for op := 0; op < int(subs); op++ {
			live := n.LiveNodes()
			old := live[rng.Intn(len(live))]
			repl := n.Resolve(MakeLit(live[rng.Intn(len(live))], rng.Intn(2) == 0))
			if !n.IsGate(old) || n.Ref(old) == 0 || repl.Node() == old || n.InTFI(repl, old) {
				continue
			}
			n.Substitute(old, repl)
		}
		var roots []int
		for _, id := range n.LiveNodes() {
			if n.IsGate(id) && n.Ref(id) > 0 && n.Resolve(MakeLit(id, false)).Node() == id {
				roots = append(roots, id)
			}
		}
		if len(roots) == 0 {
			return
		}
		var s TFIScratch
		for trial := 0; trial < 16; trial++ {
			root := roots[rng.Intn(len(roots))]
			// Grow a cut of at most 6 leaves by expanding random gate leaves.
			f0, f1 := n.Fanins(root)
			leaves := []Lit{f0, f1}
			inner := []Lit{MakeLit(root, false)}
			for step := rng.Intn(6); step > 0 && len(leaves) < 6; step-- {
				i := rng.Intn(len(leaves))
				if !n.IsGate(leaves[i].Node()) {
					continue
				}
				g0, g1 := n.Fanins(leaves[i].Node())
				inner = append(inner, leaves[i])
				leaves[i] = g0
				leaves = append(leaves, g1)
			}
			if rng.Intn(4) == 0 {
				leaves = append(leaves, MakeLit(roots[rng.Intn(len(roots))], false))
			}
			pool := append(append([]Lit(nil), leaves...), inner...)
			lit := pool[rng.Intn(len(pool))]
			for k := rng.Intn(4); k > 0; k-- {
				other := pool[rng.Intn(len(pool))].NotIf(rng.Intn(2) == 0)
				if rng.Intn(2) == 0 {
					lit = n.And(lit, other)
				} else {
					lit = n.Xor(lit, other)
				}
				pool = append(pool, lit)
			}

			shown := n.LeavesInTFI(root, leaves, int(budget), &s)
			if shown {
				r0, r1 := n.Fanins(root)
				for _, l := range leaves {
					if !n.InTFI(r0, l.Node()) && !n.InTFI(r1, l.Node()) {
						t.Fatalf("leaf %v shown below root n%d but is not in its fanin", l, root)
					}
				}
			}
			ok, hitRoot := coneWithin(n, lit, leaves, root)
			if !ok || !shown {
				continue // the engine would reject the escape, or take the full walk
			}
			if want := n.InTFI(lit, root); hitRoot != want {
				t.Fatalf("cone-only guard says %v for root n%d, literal %v, leaves %v; InTFI says %v",
					hitRoot, root, lit, leaves, want)
			}
		}
	})
}
