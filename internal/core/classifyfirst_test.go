package core

import (
	"context"
	"testing"

	"repro/internal/cut"
	"repro/internal/mcdb"
	"repro/internal/tt"
	"repro/internal/xag"
)

// incomplete5 is x3·x4·(x0⊕x1⊕x2), whose classification is incomplete at
// the default iteration limit.
var incomplete5 = tt.T{N: 5, Bits: 0x96000000}

// incomplete5Cut builds a network computing incomplete5 and returns the
// root id with its 5-leaf cut.
func incomplete5Cut(t *testing.T) (*xag.Network, int, cut.Cut) {
	t.Helper()
	n := xag.New()
	var x [5]xag.Lit
	for i := range x {
		x[i] = n.AddPI("")
	}
	root := n.And(n.And(x[3], x[4]), n.Xor(n.Xor(x[0], x[1]), x[2]))
	n.AddPO(root, "f")
	for _, c := range cut.Enumerate(n, cut.Params{K: 6}).For(root.Node()) {
		if sh, _ := c.Table.Shrink(); c.Size() == 5 && sh == incomplete5 {
			return n, root.Node(), c
		}
	}
	t.Fatalf("no 5-leaf cut computing %s", incomplete5)
	return nil, 0, cut.Cut{}
}

func syntheses(s mcdb.Stats) int { return s.ExactSyntheses + s.BoundedExact + s.DavioFallbacks }

// TestIncompleteClassBuildsNoEntry: the engine classifies first and fetches
// a class circuit only when it will use it, so a cut whose classification
// is incomplete costs one classification and no synthesis.
func TestIncompleteClassBuildsNoEntry(t *testing.T) {
	_, root, c := incomplete5Cut(t)

	db := mcdb.New(mcdb.Options{})
	admitted := 0
	db.SetEntryHook(func(*mcdb.Entry) { admitted++ })
	e := NewEngine(db, Options{})
	var deg Degradation
	out, fresh := e.prepareNode(root, []cut.Cut{c}, nil, map[prepKey]*memoPrep{}, &deg)
	if !fresh {
		t.Fatal("cut did not reach the database")
	}
	if len(out) != 0 || deg.IncompleteClassifications != 1 {
		t.Fatalf("got %d candidates, %d incomplete; want 0 and 1", len(out), deg.IncompleteClassifications)
	}
	s := db.Stats()
	if admitted != 0 || syntheses(s) != 0 {
		t.Fatalf("incomplete class admitted %d entries after %d syntheses, want 0 and 0", admitted, syntheses(s))
	}
	if s.Classified != 1 || s.ClassCacheHits != 0 {
		t.Fatalf("class cache counted %d misses, %d hits; want 1 and 0", s.Classified, s.ClassCacheHits)
	}

	// UseIncomplete still needs the circuit: the same cut synthesizes it and
	// becomes a candidate.
	db = mcdb.New(mcdb.Options{})
	e = NewEngine(db, Options{UseIncomplete: true})
	deg = Degradation{}
	out, _ = e.prepareNode(root, []cut.Cut{c}, nil, map[prepKey]*memoPrep{}, &deg)
	if len(out) != 1 || out[0].entry == nil {
		t.Fatalf("UseIncomplete: got %d candidates, want 1 with an entry", len(out))
	}
	if s := db.Stats(); syntheses(s) == 0 {
		t.Fatalf("UseIncomplete: %d syntheses, want > 0", syntheses(s))
	}
}

// TestMinimizeSkipsIncompleteSynthesis: over a whole run, no 5-input entry
// is built when every 5-input class the network yields is incomplete.
func TestMinimizeSkipsIncompleteSynthesis(t *testing.T) {
	n, _, _ := incomplete5Cut(t)
	db := mcdb.New(mcdb.Options{})
	wide := 0
	db.SetEntryHook(func(e *mcdb.Entry) {
		if e.N >= 5 {
			wide++
		}
	})
	res := NewEngine(db, Options{}).Minimize(context.Background(), n)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Degraded.IncompleteClassifications == 0 {
		t.Fatal("no incomplete classification seen; the network no longer exercises the skip")
	}
	if wide != 0 {
		t.Fatalf("run admitted %d entries with 5 or more inputs, want 0", wide)
	}
	equalOnRandom(t, n, res.Network, 2, 7)
}
