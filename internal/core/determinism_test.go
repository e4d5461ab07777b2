package core

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/cost"
	"repro/internal/xag"
)

// TestIncrementalDeterminismLarge is the regression gate for incremental
// rewriting on the ISSUE's reference circuits: for adder-64 and
// sha-256-round, every combination of cost model (mc, size, depth) and
// worker count (1, 4) must commit a Bristol serialization byte-identical to
// the full-recompute sequential reference. One database is shared per
// circuit/model pair — warmth must not change results either.
func TestIncrementalDeterminismLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second matrix; run without -short")
	}
	nets := []struct {
		name  string
		build func() *xag.Network
	}{
		{"adder-64", func() *xag.Network { return bench.Adder(64) }},
		{"sha-256-round", func() *xag.Network { return bench.SHA256Round() }},
	}
	models := []struct {
		name  string
		model Cost
	}{
		{"mc", cost.MC()},
		{"size", cost.Size()},
		{"depth", cost.Depth()},
	}
	for _, n := range nets {
		for _, m := range models {
			t.Run(n.name+"/"+m.name, func(t *testing.T) {
				ref := MinimizeMC(n.build(), Options{Workers: 1, Cost: m.model, NoIncremental: true})
				if ref.Err != nil {
					t.Fatal(ref.Err)
				}
				refB := bristol(t, ref.Network)
				for _, workers := range []int{1, 4} {
					got := MinimizeMC(n.build(), Options{Workers: workers, Cost: m.model, DB: ref.DB})
					if got.Err != nil {
						t.Fatal(got.Err)
					}
					if !bytes.Equal(bristol(t, got.Network), refB) {
						t.Errorf("workers=%d: incremental network differs from full sequential reference", workers)
					}
					if len(got.Rounds) != len(ref.Rounds) {
						t.Errorf("workers=%d: incremental ran %d rounds, full ran %d",
							workers, len(got.Rounds), len(ref.Rounds))
					}
				}
			})
		}
	}
}

// sharedLeafAdders builds n disjoint full-adder cones that all share one
// carry-in PI: every cone rewrites (3 ANDs → 1), the MFFCs are disjoint,
// and the cones overlap only in the shared leaf.
func sharedLeafAdders(n int) *xag.Network {
	net := xag.New()
	cin := net.AddPI("cin")
	for i := 0; i < n; i++ {
		a, b := net.AddPI(""), net.AddPI("")
		ab := net.Xor(a, b)
		net.AddPO(net.Xor(ab, cin), "")
		net.AddPO(net.Or(net.And(a, b), net.And(cin, ab)), "")
	}
	return net
}

// disjointAdders is sharedLeafAdders without the sharing: fully independent
// cones, each rooted at a primary output.
func disjointAdders(n int) *xag.Network {
	net := xag.New()
	for i := 0; i < n; i++ {
		a, b, cin := net.AddPI(""), net.AddPI(""), net.AddPI("")
		ab := net.Xor(a, b)
		net.AddPO(net.Xor(ab, cin), "")
		net.AddPO(net.Or(net.And(a, b), net.And(cin, ab)), "")
	}
	return net
}

// TestWorkersDeterminism pins the committed bytes across worker counts on
// commit-stage shapes: rewrites whose cones share a leaf, independent cones
// that must run to convergence, rewrites rooted at primary-output gates, a
// carry chain where each commit reshapes the next node's cone, and the
// per-round rewrite budget. Enumeration and classification run on 4
// workers; the commit pass must land the same rewrites in the same order as
// a single-worker run.
func TestWorkersDeterminism(t *testing.T) {
	cases := []struct {
		name     string
		build    func() *xag.Network
		opts     Options
		budget   int  // max replacements per round; 0 = unchecked
		converge bool // the run must stop on a round that improves nothing
	}{
		{"shared-leaf", func() *xag.Network { return sharedLeafAdders(24) }, Options{}, 0, false},
		{"disjoint-cones", func() *xag.Network { return disjointAdders(24) }, Options{}, 0, true},
		// The cout cones root at PO-referenced OR gates; their rewrite is
		// what removes ANDs, so the shrinking AND count proves PO-rooted
		// commits ran.
		{"po-root", func() *xag.Network { return disjointAdders(24) }, Options{MaxRounds: 1}, 0, false},
		{"carry-chain", func() *xag.Network { return rippleAdder(32) }, Options{}, 0, false},
		{"budget", func() *xag.Network { return rippleAdder(32) }, Options{MaxRewritesPerRound: 5, MaxRounds: 2}, 5, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out [][]byte
			for _, workers := range []int{1, 4} {
				opts := tc.opts
				opts.Workers = workers
				res := MinimizeMC(tc.build(), opts)
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				if res.Final().And >= res.Initial().And {
					t.Errorf("workers=%d: no optimization happened: %d → %d ANDs",
						workers, res.Initial().And, res.Final().And)
				}
				if tc.converge && !res.Converged {
					t.Errorf("workers=%d: stopped after %d rounds without converging",
						workers, len(res.Rounds))
				}
				for i, r := range res.Rounds {
					if tc.budget > 0 && r.Replacements > tc.budget {
						t.Errorf("workers=%d round %d: %d replacements, budget %d",
							workers, i+1, r.Replacements, tc.budget)
					}
				}
				out = append(out, bristol(t, res.Network))
			}
			if !bytes.Equal(out[0], out[1]) {
				t.Fatalf("workers=4 output differs from workers=1")
			}
		})
	}
}
