package core

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/cost"
	"repro/internal/mcdb"
	"repro/internal/tt"
	"repro/internal/xag"
)

// TestCycleGuardMatchesFullWalk is the differential gate of the bounded
// cycle guard: over a circuit × cost model × cut size matrix, every answer
// the guard gives from the cut's own cone must equal the full transitive-
// fanin walk. It also pins that both paths run: the fast path, and the
// fallback on voter under mc and sine under depth, whose rounds reshape
// cuts before their roots commit. (Under the size model most of these
// circuits commit nothing, so they ask the guard nothing.)
func TestCycleGuardMatchesFullWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second matrix; run without -short")
	}
	circuits := []string{"adder-64", "sha-256-round", "multiplier", "voter", "max", "sine"}
	models := []struct {
		name  string
		model Cost
	}{
		{"mc", cost.MC()},
		{"size", cost.Size()},
		{"depth", cost.Depth()},
	}
	fallbacks := map[string]int{}
	fast := 0
	for _, k := range []int{4, 6} {
		db := mcdb.New(mcdb.Options{})
		for _, name := range circuits {
			b, ok := bench.ByName(name)
			if !ok {
				t.Fatalf("unknown benchmark %q", name)
			}
			for _, m := range models {
				key := fmt.Sprintf("%s/%s/k%d", name, m.name, k)
				e := NewEngine(db, Options{CutSize: k, Cost: m.model})
				e.guardAudit = &guardAudit{}
				res := e.Minimize(nil, b.Build())
				fb := 0
				for _, r := range res.Rounds {
					fb += r.GuardFallbacks
				}
				a := e.guardAudit
				if a.mismatches != 0 {
					t.Errorf("%s: %d of %d bounded guard answers differ from InTFIScratch", key, a.mismatches, a.fast)
				}
				fast += a.fast
				fallbacks[key] = fb
				t.Logf("%s: %d fast answers, %d full-walk fallbacks", key, a.fast, fb)
			}
		}
	}
	if fast == 0 {
		t.Error("the bounded guard never answered from the cut's cone")
	}
	for _, key := range []string{"voter/mc/k4", "voter/mc/k6", "sine/depth/k4", "sine/depth/k6"} {
		if fallbacks[key] == 0 {
			t.Errorf("%s: no full-walk fallback ran; the fallback path is untested", key)
		}
	}
}

// TestCycleGuardRejectsRealCycle: a realized replacement that strashes onto
// the root itself computes the right function over the cut leaves, so only
// the cycle guard stands between it and a cyclic network. The guard must
// answer from the cut's cone (the leaves are intact) and reject it without
// counting a degradation.
func TestCycleGuardRejectsRealCycle(t *testing.T) {
	n := xag.New()
	x, y := n.AddPI("x"), n.AddPI("y")
	r := n.And(x, y)
	n.AddPO(r, "r")
	root := r.Node()

	e := NewEngine(nil, Options{})
	e.guardAudit = &guardAudit{}
	var stats RoundStats
	var deg Degradation
	want := tt.Var(0, 2).And(tt.Var(1, 2))
	best := &replacement{
		// AND(r, x) computes x∧y over the leaves, but feeds on r.
		realize: func() xag.Lit { return n.And(r, x) },
		want:    want,
		leaves:  []xag.Lit{x, y},
	}
	if e.applyReplacement(n, root, best, &stats, &deg) {
		t.Fatal("a replacement containing its own root was substituted")
	}
	if stats.CycleRejects != 1 || stats.GuardFallbacks != 0 || stats.ConeEscapes != 0 {
		t.Fatalf("stats = %d cycle rejects, %d fallbacks, %d escapes; want 1, 0, 0",
			stats.CycleRejects, stats.GuardFallbacks, stats.ConeEscapes)
	}
	if e.guardAudit.fast != 1 || e.guardAudit.mismatches != 0 {
		t.Fatalf("audit = %+v, want one matching fast answer", *e.guardAudit)
	}
	if deg.Total() != 0 {
		t.Fatalf("cycle rejection counted as degradation: %+v", deg)
	}
	if got := n.Resolve(r); got != r {
		t.Fatalf("root resolves to %v after a rejected rewrite", got)
	}

	// The same realized literal against a cut whose leaves no longer lie
	// under the root (z is unrelated) must take the full walk and still
	// reject.
	z := n.AddPI("z")
	best.leaves = []xag.Lit{x, y, z}
	best.want = tt.Var(0, 3).And(tt.Var(1, 3))
	stats = RoundStats{}
	if e.applyReplacement(n, root, best, &stats, &deg) {
		t.Fatal("fallback path substituted a cyclic replacement")
	}
	if stats.CycleRejects != 1 || stats.GuardFallbacks != 1 {
		t.Fatalf("stats = %d cycle rejects, %d fallbacks; want 1 and 1", stats.CycleRejects, stats.GuardFallbacks)
	}

	// An acyclic replacement of the same function, x ⊕ x∧¬y, passes the
	// guard on the fast path and is substituted.
	best = &replacement{
		realize: func() xag.Lit { return n.Xor(x, n.And(x, y.Not())) },
		want:    want,
		leaves:  []xag.Lit{x, y},
	}
	stats = RoundStats{}
	e.guardAudit = &guardAudit{}
	if !e.applyReplacement(n, root, best, &stats, &deg) {
		t.Fatalf("acyclic replacement rejected: %+v, %+v", stats, deg)
	}
	if e.guardAudit.fast != 1 || e.guardAudit.mismatches != 0 || stats.GuardFallbacks != 0 {
		t.Fatalf("acyclic replacement: audit %+v, %d fallbacks; want one matching fast answer", *e.guardAudit, stats.GuardFallbacks)
	}
}
