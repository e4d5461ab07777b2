package mcdb

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/tt"
)

// incomplete5 is x3·x4·(x0⊕x1⊕x2): MC 2, but its spectral classification
// hits the default iteration limit, so the rewriting engine never uses it.
var incomplete5 = tt.T{N: 5, Bits: 0x96000000}

func syntheses(s Stats) int { return s.ExactSyntheses + s.BoundedExact + s.DavioFallbacks }

// TestClassifyBuildsNoEntry: classification alone synthesizes nothing and
// admits no entry; the engine relies on this to skip incomplete classes.
func TestClassifyBuildsNoEntry(t *testing.T) {
	db := New(Options{})
	admitted := 0
	db.SetEntryHook(func(*Entry) { admitted++ })
	res := db.Classify(incomplete5)
	if res.Complete {
		t.Fatalf("%s: classification complete at the default limit; the tests below need an incomplete class", incomplete5)
	}
	if n := syntheses(db.Stats()); n != 0 {
		t.Fatalf("Classify ran %d syntheses, want 0", n)
	}
	if admitted != 0 || db.NumEntries() != 0 {
		t.Fatalf("Classify admitted %d entries (NumEntries %d), want 0", admitted, db.NumEntries())
	}
}

// TestLookupModelIsClassifyThenEntryModel: LookupModel keeps returning an
// entry for incomplete classes, and it is exactly the composition of
// Classify and EntryModel.
func TestLookupModelIsClassifyThenEntryModel(t *testing.T) {
	for _, m := range []cost.Model{cost.MC(), cost.Depth()} {
		db := New(Options{})
		e, res := db.LookupModel(incomplete5, m)
		if e == nil {
			t.Fatalf("%s: LookupModel returned no entry", m.Name())
		}
		if e.F != res.Repr {
			t.Fatalf("%s: entry computes %s, want representative %s", m.Name(), e.F, res.Repr)
		}
		if err := e.Verify(); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if syntheses(db.Stats()) == 0 {
			t.Fatalf("%s: LookupModel on a cold database synthesized nothing", m.Name())
		}

		split := New(Options{})
		sres := split.Classify(incomplete5)
		se := split.EntryModel(sres.Repr, m)
		if sres != res {
			t.Fatalf("%s: Classify differs from LookupModel's classification", m.Name())
		}
		if se.F != e.F || se.Out != e.Out || len(se.Steps) != len(e.Steps) {
			t.Fatalf("%s: EntryModel entry differs from LookupModel's", m.Name())
		}
		for i := range se.Steps {
			if se.Steps[i] != e.Steps[i] {
				t.Fatalf("%s: step %d differs", m.Name(), i)
			}
		}
	}
}

// TestLookupCountsClassCacheOnce: a lookup is one classification in the
// class-cache statistics; EntryModel never touches the class cache for the
// representative it is given.
func TestLookupCountsClassCacheOnce(t *testing.T) {
	db := New(Options{})
	_, res := db.LookupModel(incomplete5, cost.MC()) // cold: classify + synthesize
	before := db.Stats()

	db.LookupModel(incomplete5, cost.MC())
	after := db.Stats()
	if d := after.ClassCacheHits - before.ClassCacheHits; d != 1 {
		t.Fatalf("warm LookupModel added %d class-cache hits, want 1", d)
	}
	if d := after.Classified - before.Classified; d != 0 {
		t.Fatalf("warm LookupModel added %d classifications, want 0", d)
	}

	db.EntryModel(res.Repr, cost.MC())
	last := db.Stats()
	if last.ClassCacheHits != after.ClassCacheHits || last.Classified != after.Classified {
		t.Fatalf("warm EntryModel changed class-cache counters: hits %d->%d, classified %d->%d",
			after.ClassCacheHits, last.ClassCacheHits, after.Classified, last.Classified)
	}
	if syntheses(last) != syntheses(before) {
		t.Fatalf("warm lookups synthesized again: %d -> %d", syntheses(before), syntheses(last))
	}
}
