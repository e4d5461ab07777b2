package core

import (
	"math"
	"sync"

	"repro/internal/cut"
	"repro/internal/mcdb"
	"repro/internal/spectral"
	"repro/internal/tt"
	"repro/internal/xag"
)

// prepMemo caches the database-derived part of one cut function's
// classification for the lifetime of one Minimize call: entry selection,
// transform, costs, and the degradation verdicts. Within a Minimize the
// per-class database state is append-stable (a class front is synthesized on
// first lookup and never changes afterwards), so the memoized value is
// exactly what a fresh Classify plus EntryModel would return — replaying it
// preserves bit-identical commits while skipping the lookup's lock, Pareto
// scan, and validation for every repeated function. The memo is sharded like
// the database's own classification cache so classify workers rarely contend.
type prepMemo struct {
	shards [16]prepMemoShard
}

type prepMemoShard struct {
	mu sync.RWMutex
	m  map[tt.T]*memoPrep
}

// memoPrep is one memoized classification. Exactly one of the three shapes
// holds: skip (incomplete or invalid — the cut contributes no candidate),
// constant (sh.N == 0 handled before the memo), or a usable entry.
type memoPrep struct {
	entry      *mcdb.Entry
	tr         spectral.Transform
	newAnds    int
	newXors    int
	incomplete bool // counted as IncompleteClassifications when skipped
	invalid    bool // counted as InvalidEntries
}

func newPrepMemo() *prepMemo {
	pm := &prepMemo{}
	for i := range pm.shards {
		pm.shards[i].m = make(map[tt.T]*memoPrep)
	}
	return pm
}

func (pm *prepMemo) shardOf(f tt.T) *prepMemoShard {
	h := (f.Bits ^ uint64(f.N)<<57) * 0x9e3779b97f4a7c15
	return &pm.shards[h>>60&15]
}

func (pm *prepMemo) get(f tt.T) (*memoPrep, bool) {
	s := pm.shardOf(f)
	s.mu.RLock()
	mp, ok := s.m[f]
	s.mu.RUnlock()
	return mp, ok
}

// put stores mp under f; first insert wins so every reader observes one
// canonical value (concurrent computations of the same function return
// identical data anyway — the value is deterministic).
func (pm *prepMemo) put(f tt.T, mp *memoPrep) *memoPrep {
	s := pm.shardOf(f)
	s.mu.Lock()
	if prev, ok := s.m[f]; ok {
		s.mu.Unlock()
		return prev
	}
	s.m[f] = mp
	s.mu.Unlock()
	return mp
}

// incState carries per-node facts from one Minimize round into the next:
// candidate cut lists and prepared classifications of nodes the previous
// round's commits left locally untouched, plus the leaf-validity data the
// next round needs to decide which seeds are provably reusable. It is a
// pure cache — a seed is consumed only when reusing it is proven identical
// to recomputing it (DESIGN.md §10), so seeded rounds commit bit-identical
// networks. Invalidated (valid=false) after an interrupted or rolled-back
// round; the next round then runs the full pipeline and refills it.
type incState struct {
	valid  bool
	cuts   *cut.Set     // seed cut lists, indexed by next round's node ids
	prep   [][]prepared // seed classifications, same indexing
	prepOK []bool       // prepOK[id]: prep seed present for id
	leafOK []bool       // leafOK[id]: id's renumbering was order-preserving
	depth  []int        // round-start depth by new id (-1 absent); nil unless ranked

	// memo is the Minimize-lifetime classification memo (see prepMemo). It
	// survives rollbacks and interruptions — its values are keyed by cut
	// function, not network structure, so they stay correct when the seeds
	// above are invalidated.
	memo *prepMemo
}

// carryState distills the finished round into seeds for the next one.
//
// old is the pre-Cleanup network after the commit stage, out its compacted
// image, m the old→new literal map from CleanupMap, cuts/prep the round's
// enumeration and classification results (indexed by old ids), and depths
// the round-start depth snapshot (nil for models without depth ranking).
//
// A gate's cut list is carried only when it can still describe the same
// structure in out:
//
//   - the gate is locally clean — not created or substituted this round,
//     and both stored fanin edges still resolve to themselves — so the node
//     and its immediate wiring are unchanged;
//   - the gate's image is a gate of the same kind whose fanins are the
//     images of the old fanins (in either order), and each fanin kept its
//     gate/input nature — deep substitutions can violate any of these even
//     for a locally clean gate: equal fanin images can collapse the gate, a
//     fanin gate can fold onto an input;
//   - the gate and every leaf of every kept cut survived Cleanup, so the
//     lists renumber into the new id space without losing a variable.
//
// Complemented images are allowed: the rebuild's XOR normalization floats
// complements toward the outputs, so one local substitution can flip the
// images of a whole XOR cone above it without changing its structure.
// TransformLeaves rewrites the tables for the flipped polarities (each
// carried table is the image node's function over the image leaves), which
// keeps the cut seeds valid. Classification seeds cannot cross a polarity
// flip — their truth tables, transforms, and XOR costs are tied to the
// exact unflipped functions — so prep is carried only for fully
// uncomplemented gates.
//
// Whether a carried seed may then be consumed without recomputation is the
// next round's decision (cut.EnumerateIncremental): it requires the fanin
// lists to be unchanged and every candidate leaf to pass leafOK — the
// order-preservation flag computed here (new id above every earlier and
// below every later pre-epoch survivor's, so all leaf-id comparisons inside
// merge, prune tie-breaks, and subsumption come out the same) — plus, for
// ranked runs, an unchanged depth. Seeds that fail are simply recomputed
// and compared, which costs time, never correctness.
func (e *Engine) carryState(inc *incState, old, out *xag.Network, m []xag.Lit, cuts *cut.Set, prep [][]prepared, depths []int) {
	inc.valid = false
	inc.cuts, inc.prep, inc.prepOK, inc.leafOK, inc.depth = nil, nil, nil, nil, nil
	defer func() {
		if r := recover(); r != nil {
			inc.valid = false
			inc.cuts, inc.prep, inc.prepOK, inc.leafOK, inc.depth = nil, nil, nil, nil, nil
			e.logf("core: incremental reuse disabled this round after panic: %v", r)
		}
	}()

	numOld := old.NumNodes()
	numNew := out.NumNodes()
	base := old.DirtyCreatedBase() // nodes with id >= base were created this round

	// Survivors: pre-epoch nodes that kept a node image (of either polarity)
	// across Cleanup, in ascending old-id order. Only their images can serve
	// as seed leaves — seed lists were enumerated at round start, before any
	// node of this epoch existed — so nodes created by the round's commits
	// (which Cleanup renumbers into the middle of the id space) are excluded
	// from the order universe: their scrambled placement is irrelevant to
	// every comparison a seeded re-merge can perform.
	imgNode := make([]int32, numOld)
	for i := range imgNode {
		imgNode[i] = -1
	}
	imgNode[0] = 0
	surv := make([]int, 0, numNew)
	surv = append(surv, 0)
	for id := 1; id < numOld && id < len(m); id++ {
		if m[id] == xag.NullLit {
			continue
		}
		imgNode[id] = int32(m[id].Node())
		if id < base {
			surv = append(surv, id)
		}
	}

	// leafOK (by new id): pre-epoch survivors whose renumbering preserves id
	// order against all other pre-epoch survivors — new id above every
	// earlier survivor's (prefix max) and below every later one's (suffix
	// min). The strict inequalities also reject two old nodes folding onto
	// one image node (equal in the new space, distinct in the old).
	leafOK := make([]bool, numNew)
	pre := make([]bool, len(surv))
	maxBefore := int32(-1)
	for i, id := range surv {
		pre[i] = imgNode[id] > maxBefore
		if imgNode[id] > maxBefore {
			maxBefore = imgNode[id]
		}
	}
	minAfter := int32(math.MaxInt32)
	for i := len(surv) - 1; i >= 0; i-- {
		id := surv[i]
		if nid := imgNode[id]; pre[i] && nid < minAfter {
			leafOK[nid] = true
		}
		if imgNode[id] < minAfter {
			minAfter = imgNode[id]
		}
	}

	var seedDepth []int
	if depths != nil {
		seedDepth = make([]int, numNew)
		for i := range seedDepth {
			seedDepth[i] = -1
		}
		for _, id := range surv {
			if id < len(depths) {
				seedDepth[imgNode[id]] = depths[id] // AND-depth is polarity-invariant
			}
		}
	}

	slots := make([][]cut.Cut, numNew)
	nextPrep := make([][]prepared, numNew)
	prepOK := make([]bool, numNew)
	poisoned := make([]bool, numNew)
	for _, id := range old.LiveNodes() {
		if !old.IsGate(id) {
			continue
		}
		img := m[id]
		if img == xag.NullLit {
			continue
		}
		if old.NodeDirty(id) {
			continue
		}
		f0, f1 := old.Fanins(id)
		if old.Resolve(f0) != f0 || old.Resolve(f1) != f1 {
			continue // a fanin was substituted: the local structure changed
		}
		// The gate's new incarnation must be wired exactly as the old one
		// under the image map: same kind, fanins pointing at the fanins' own
		// image nodes (in either order — the rebuild's normalization may
		// swap them), each fanin keeping its gate/input nature. Fanin
		// complements need no check: the carried tables are functions of the
		// image node over the image leaves, which absorbs every interior
		// polarity the normalization floated around.
		nid := int(img.Node())
		n0, n1 := imgNode[f0.Node()], imgNode[f1.Node()]
		if n0 < 0 || n1 < 0 ||
			!out.IsGate(nid) || out.Kind(nid) != old.Kind(id) ||
			old.IsGate(f0.Node()) != out.IsGate(int(n0)) ||
			old.IsGate(f1.Node()) != out.IsGate(int(n1)) {
			continue
		}
		g0, g1 := out.Fanins(nid)
		if !(g0.Node() == int(n0) && g1.Node() == int(n1) ||
			g0.Node() == int(n1) && g1.Node() == int(n0)) {
			continue
		}
		// Two old gates mapping onto one new slot means the slot's seed
		// would be ambiguous — drop it entirely (vanishingly rare: it takes
		// distinct old structures whose images strash-fold together).
		if poisoned[nid] || slots[nid] != nil {
			slots[nid], nextPrep[nid], prepOK[nid] = nil, nil, false
			poisoned[nid] = true
			continue
		}
		cs := cuts.For(id)
		renumberable := true
		flipped := img.Compl()
		for ci := range cs {
			c := &cs[ci]
			for k := 0; k < c.Size(); k++ {
				l := c.Leaf(k)
				if imgNode[l] < 0 {
					renumberable = false
					break
				}
				if m[l].Compl() {
					flipped = true
				}
			}
			if !renumberable {
				break
			}
		}
		if !renumberable {
			continue // a cut leaf died in Cleanup: the list cannot carry over
		}

		// Renumber the cached facts in place into the new id space, flipping
		// table polarities where Cleanup complemented an image. Leaf order
		// inside a cut — and hence the variable alignment — is preserved
		// whenever the next round actually consumes the seed (leafOK guards
		// it); a garbled list merely fails that round's equality check and
		// is recomputed.
		cut.TransformLeaves(cs, func(l int) (int, bool) { return int(imgNode[l]), m[l].Compl() }, img.Compl())
		slots[nid] = cs
		if !flipped {
			pp := prep[id]
			for pi := range pp {
				for li, l := range pp[pi].leaves {
					pp[pi].leaves[li] = xag.MakeLit(int(imgNode[l.Node()]), l.Compl())
				}
			}
			nextPrep[nid] = pp
			prepOK[nid] = true
		}
	}

	inc.cuts = cut.NewSetFrom(slots)
	inc.prep = nextPrep
	inc.prepOK = prepOK
	inc.leafOK = leafOK
	inc.depth = seedDepth
	inc.valid = true
}
