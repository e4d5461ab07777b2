package cut

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/xag"
)

func randomReuseNet(rng *rand.Rand, nPIs, nGates int) *xag.Network {
	n := xag.New()
	lits := make([]xag.Lit, 0, nPIs+nGates)
	for i := 0; i < nPIs; i++ {
		lits = append(lits, n.AddPI(""))
	}
	for i := 0; i < nGates; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		if rng.Intn(2) == 0 {
			lits = append(lits, n.And(a, b))
		} else {
			lits = append(lits, n.Xor(a, b))
		}
	}
	for i := 0; i < 4; i++ {
		n.AddPO(lits[len(lits)-1-i], "")
	}
	n.AddPO(lits[0], "pi0")
	return n.Cleanup()
}

func sameSets(t *testing.T, n *xag.Network, got, want *Set, label string) {
	t.Helper()
	for _, id := range n.LiveNodes() {
		g, w := got.For(id), want.For(id)
		if len(g) != len(w) {
			t.Fatalf("%s: node %d has %d cuts, want %d", label, id, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: node %d cut %d = %+v, want %+v", label, id, i, g[i], w[i])
			}
		}
	}
}

func countGates(n *xag.Network) int {
	gates := 0
	for _, id := range n.LiveNodes() {
		if n.IsGate(id) {
			gates++
		}
	}
	return gates
}

// A nil seed must reproduce the plain enumeration exactly, for any worker
// count, re-merging every gate and flagging each as changed.
func TestEnumerateIncrementalNilSeedMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := randomReuseNet(rng, 6, 60)
		want := Enumerate(n, Params{})
		for _, workers := range []int{1, 2, 8} {
			got, changed, computed, err := EnumerateIncremental(context.Background(), n, Params{}, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if gates := countGates(n); computed != gates {
				t.Fatalf("workers=%d: computed %d gates, want %d", workers, computed, gates)
			}
			for _, id := range n.LiveNodes() {
				if changed[id] != n.IsGate(id) {
					t.Fatalf("workers=%d: node %d changed=%v", workers, id, changed[id])
				}
			}
			sameSets(t, n, got, want, "nil seed")
		}
	}
}

// Seeding slots with their true cut lists must change nothing. With every
// leaf valid, a seeded gate is adopted without re-merging exactly when
// neither fanin is an unseeded gate (the only lists that change); without
// LeafOK no seed is adopted, and the result is still exact.
func TestEnumerateIncrementalSeededMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := randomReuseNet(rng, 6, 60)
		want := Enumerate(n, Params{})
		seedSlots := make([][]Cut, n.NumNodes())
		leafOK := make([]bool, n.NumNodes())
		for _, id := range n.LiveNodes() {
			leafOK[id] = true
			if n.IsGate(id) && rng.Intn(2) == 0 {
				seedSlots[id] = want.For(id)
			}
		}
		fresh := func(id int) bool { return n.IsGate(id) && seedSlots[id] == nil }
		wantComputed := 0
		for _, id := range n.LiveNodes() {
			if !n.IsGate(id) {
				continue
			}
			f0, f1 := n.Fanins(id)
			if seedSlots[id] == nil || fresh(f0.Node()) || fresh(f1.Node()) {
				wantComputed++
			}
		}
		for _, workers := range []int{1, 4} {
			seed := &Seed{Cuts: NewSetFrom(seedSlots), LeafOK: leafOK}
			got, changed, computed, err := EnumerateIncremental(context.Background(), n, Params{}, workers, seed)
			if err != nil {
				t.Fatal(err)
			}
			if computed != wantComputed {
				t.Fatalf("workers=%d: computed %d, want %d", workers, computed, wantComputed)
			}
			for _, id := range n.LiveNodes() {
				if changed[id] != fresh(id) {
					t.Fatalf("workers=%d: node %d changed=%v, want %v", workers, id, changed[id], fresh(id))
				}
			}
			sameSets(t, n, got, want, "seeded")

			got, _, computed, err = EnumerateIncremental(context.Background(), n, Params{}, workers,
				&Seed{Cuts: NewSetFrom(seedSlots)})
			if err != nil {
				t.Fatal(err)
			}
			if gates := countGates(n); computed != gates {
				t.Fatalf("workers=%d, no LeafOK: computed %d, want %d", workers, computed, gates)
			}
			sameSets(t, n, got, want, "seeded without LeafOK")
		}
	}
}

func TestAppendLeaves(t *testing.T) {
	n := randomReuseNet(rand.New(rand.NewSource(1)), 5, 20)
	s := Enumerate(n, Params{})
	for _, id := range n.LiveNodes() {
		for _, c := range s.For(id) {
			buf := c.AppendLeaves(nil)
			want := c.Leaves()
			if len(buf) != len(want) {
				t.Fatalf("AppendLeaves len %d, want %d", len(buf), len(want))
			}
			for i := range buf {
				if buf[i] != want[i] {
					t.Fatalf("AppendLeaves[%d] = %d, want %d", i, buf[i], want[i])
				}
			}
			// Appending must extend, not overwrite.
			pre := []int{-7}
			ext := c.AppendLeaves(pre)
			if ext[0] != -7 || len(ext) != len(want)+1 {
				t.Fatalf("AppendLeaves did not append: %v", ext)
			}
		}
	}
}

func TestAppendLeavesAllocs(t *testing.T) {
	c := trivial(5)
	buf := make([]int, 0, MaxK)
	allocs := testing.AllocsPerRun(100, func() {
		buf = c.AppendLeaves(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendLeaves allocates %.1f times per call, want 0", allocs)
	}
}

// Steady-state enumeration allocations stay bounded: roughly one allocation
// per node (the kept list) once the scratch pool is warm.
func TestEnumerateAllocsBounded(t *testing.T) {
	n := randomReuseNet(rand.New(rand.NewSource(31)), 8, 120)
	Enumerate(n, Params{}) // warm the pool
	live := len(n.LiveNodes())
	allocs := testing.AllocsPerRun(5, func() {
		Enumerate(n, Params{})
	})
	if limit := float64(live*2 + 16); allocs > limit {
		t.Fatalf("Enumerate allocates %.0f times per run on %d live nodes, want <= %.0f",
			allocs, live, limit)
	}
}

// TransformLeaves with complemented images must rewrite each table so that
// the cut still describes the image node's function over the image leaves:
// flipping leaf j's polarity composes FlipVar(j), flipping the root
// composes Not. The identity transform must be a no-op, and two flips must
// cancel.
func TestTransformLeavesPolarity(t *testing.T) {
	n := randomReuseNet(rand.New(rand.NewSource(47)), 6, 50)
	s := Enumerate(n, Params{})
	for _, id := range n.LiveNodes() {
		orig := append([]Cut(nil), s.For(id)...)

		// Identity: same ids, no complements — tables unchanged.
		same := append([]Cut(nil), orig...)
		TransformLeaves(same, func(l int) (int, bool) { return l, false }, false)
		for i := range same {
			if same[i].Table != orig[i].Table || same[i].sig != orig[i].sig {
				t.Fatalf("node %d cut %d: identity transform changed the cut", id, i)
			}
		}

		// A strictly monotone shift without complements moves every leaf,
		// keeps every table and recomputes the bloom signature.
		shifted := append([]Cut(nil), orig...)
		TransformLeaves(shifted, func(l int) (int, bool) { return l + 3, false }, false)
		for i, c := range shifted {
			var sig uint64
			for j := 0; j < c.Size(); j++ {
				if c.Leaf(j) != orig[i].Leaf(j)+3 {
					t.Fatalf("node %d cut %d leaf %d = %d, want %d", id, i, j, c.Leaf(j), orig[i].Leaf(j)+3)
				}
				sig |= sigOf(int32(c.Leaf(j)))
			}
			if c.Table != orig[i].Table || c.sig != sig {
				t.Fatalf("node %d cut %d: shift changed the table or left a stale signature", id, i)
			}
		}

		// Complement every leaf and the root: each table must equal the
		// manual composition of FlipVar over all vars plus Not.
		flip := append([]Cut(nil), orig...)
		TransformLeaves(flip, func(l int) (int, bool) { return l, true }, true)
		for i := range flip {
			want := orig[i].Table
			for j := 0; j < orig[i].Size(); j++ {
				want = want.FlipVar(j)
			}
			want = want.Not()
			if flip[i].Table != want {
				t.Fatalf("node %d cut %d: flipped table %s, want %s", id, i, flip[i].Table, want)
			}
		}

		// Applying the same complement pattern twice restores the original.
		TransformLeaves(flip, func(l int) (int, bool) { return l, true }, true)
		for i := range flip {
			if flip[i].Table != orig[i].Table {
				t.Fatalf("node %d cut %d: double flip is not the identity", id, i)
			}
		}
	}
}
