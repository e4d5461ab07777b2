package mcdb

import (
	"context"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/spectral"
	"repro/internal/tt"
)

// Options configures a database.
type Options struct {
	// ClassifyLimit bounds the spectral classification search
	// (default: spectral.DefaultLimit, the paper's 100000).
	ClassifyLimit int
	// MaxExactK bounds the exhaustive synthesis depth; circuits with up to
	// this many AND gates are found optimally (default 3).
	MaxExactK int
	// SearchBudget bounds each exhaustive synthesis run in operand-pair
	// evaluations (default 50e6). Exhausted budgets fall back to Davio
	// decomposition.
	SearchBudget int
	// TwoLevelClassify enables the semi-canonical second-level
	// classification cache: on a class-cache miss the function is first
	// reduced to its semi-canonical form under input permutation and
	// input/output complementation (tt.SemiCanonical, an O(2ⁿ·n)
	// word-parallel computation), the spectral search runs on that form
	// once per semi-canonical class, and the stored result is composed with
	// the recorded renaming (spectral.ComposeRenaming) — so the many
	// permuted/complemented variants of the same cut function that
	// arithmetic networks produce skip the DFS entirely.
	//
	// Off by default to preserve bit-exact reproducibility with the
	// single-level pipeline: ~94% of 6-input classifications hit the
	// iteration limit, and a limit-bound search started from the
	// semi-canonical form is a *different* truncated search than one
	// started from the member function — both results are valid
	// (transform-correct and deterministic for a given setting), but the
	// chosen representatives, and through them golden XOR counts, can
	// differ. Deployments that prioritize throughput over golden-pin
	// compatibility should enable it; every composed result is still
	// deterministic and independent of cache state, because misses and hits
	// go through the identical compose step.
	TwoLevelClassify bool
}

func (o Options) withDefaults() Options {
	if o.ClassifyLimit == 0 {
		o.ClassifyLimit = spectral.DefaultLimit
	}
	if o.MaxExactK == 0 {
		o.MaxExactK = 3
	}
	if o.SearchBudget == 0 {
		o.SearchBudget = 50_000_000
	}
	return o
}

// Stats is a point-in-time snapshot of database activity; see DB.Stats.
type Stats struct {
	Classified     int // classification calls that missed the cache
	ClassCacheHits int
	Incomplete     int // classifications that hit the iteration limit
	EntryCacheHits int
	ExactSyntheses int // entries proven MC-optimal
	BoundedExact   int // entries found by exact search below an aborted proof
	DavioFallbacks int // entries built by Davio decomposition
	Recovered      int // entries admitted from snapshots and journal replay
	Quarantined    int // persisted records rejected by checksum or validation

	// Two-level classification cache activity (zero unless
	// Options.TwoLevelClassify is enabled).
	SemiCanonHits   int // class-cache misses answered by the semi-canonical cache
	SemiCanonMisses int // class-cache misses that ran the spectral search

	// SAT refiner activity (refine.go); all zero until a Refine pass runs.
	RefineAttempts  int // entries the refiner worked on
	RefineImproved  int // entries replaced by a smaller circuit
	RefineProven    int // entries stamped proven-optimal
	RefineUnknown   int // entries left unproven within the conflict budget
	RefineRejected  int // decoded models the validation gate refused
	RefineAndsSaved int // total AND gates removed by refinement
}

// ClassHitRate returns the fraction of classification calls answered from
// the cache (0 when nothing has been classified yet).
func (s Stats) ClassHitRate() float64 {
	total := s.Classified + s.ClassCacheHits
	if total == 0 {
		return 0
	}
	return float64(s.ClassCacheHits) / float64(total)
}

// dbStats is the live, concurrency-safe counter set behind Stats.
type dbStats struct {
	classified     atomic.Int64
	classCacheHits atomic.Int64
	incomplete     atomic.Int64
	entryCacheHits atomic.Int64
	exactSyntheses atomic.Int64
	boundedExact   atomic.Int64
	davioFallbacks atomic.Int64
	recovered      atomic.Int64
	quarantined    atomic.Int64
	semiHits       atomic.Int64
	semiMisses     atomic.Int64

	refineAttempts  atomic.Int64
	refineImproved  atomic.Int64
	refineProven    atomic.Int64
	refineUnknown   atomic.Int64
	refineRejected  atomic.Int64
	refineAndsSaved atomic.Int64
}

type key struct {
	n    int8
	bits uint64
}

// DB caches affine classifications and representative circuits. It plays
// the role of the paper's XAG_DB plus its classification cache. Synthesis is
// fully on demand: looking up a function classifies it, reuses or builds the
// circuit of its class representative, and re-applies the recorded affine
// operations.
//
// A DB is safe for concurrent use. Classification — the hot path shared by
// all workers of the parallel rewriting engine — goes through a sharded,
// mutex-striped cache (see cache.go) and scales with the worker count.
// Circuit synthesis is serialized behind a single mutex: it is recursive,
// shares the in-progress set across the recursion, and runs orders of
// magnitude less often than classification once the entry cache is warm.
type DB struct {
	opts    Options
	classes *classCache

	// mu guards entries and building. Synthesis recursion stays inside one
	// lock acquisition: the exported accessors lock, the *Locked variants
	// recurse freely.
	//
	// Each function maps to a small Pareto front of mutually non-dominated
	// circuits under (MC, AndDepth), sorted by ascending MC (AndDepth and
	// XorCost breaking ties). The head of the list is the MC-best circuit —
	// the single entry the pre-Pareto database stored — so MC-model lookups
	// are unchanged; other models select from the front via EntryModel.
	mu       sync.Mutex
	entries  map[key][]*Entry
	building map[key]bool // representatives whose synthesis is in progress

	// onNew, when set, observes every entry newly admitted to the database
	// (synthesized, loaded, or merged). It runs while db.mu is held, so the
	// durable Store can journal the entry before any later lookup depends on
	// it; implementations must not call back into the DB.
	onNew func(*Entry)

	// semi is the semi-canonical second-level classification cache, active
	// only when opts.TwoLevelClassify is set; see Options.TwoLevelClassify.
	semi *classCache

	// classifySteps, when non-nil, observes the DFS step count of every
	// classification that missed the caches (installed by RegisterMetrics).
	classifySteps atomic.Pointer[metrics.Histogram]

	ctx   atomic.Pointer[context.Context]
	stats dbStats
}

// SetEntryHook installs (or, with nil, removes) the new-entry observer. The
// Store uses it to journal every admitted entry; see the field comment for
// the reentrancy contract.
func (db *DB) SetEntryHook(fn func(*Entry)) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.onNew = fn
}

// SetContext installs a cancellation context consulted by the expensive
// synthesis searches; a canceled context makes in-flight exact searches
// abort to the cheap Davio fallback so lookups stay correct but return
// promptly. Passing nil restores the default (never canceled).
func (db *DB) SetContext(ctx context.Context) {
	if ctx == nil {
		db.ctx.Store(nil)
		return
	}
	db.ctx.Store(&ctx)
}

func (db *DB) context() context.Context {
	if p := db.ctx.Load(); p != nil {
		return *p
	}
	return context.Background()
}

// New returns an empty database.
func New(opts Options) *DB {
	db := &DB{
		opts:     opts.withDefaults(),
		classes:  newClassCache(),
		entries:  make(map[key][]*Entry),
		building: make(map[key]bool),
	}
	if db.opts.TwoLevelClassify {
		db.semi = newClassCache()
	}
	return db
}

func keyOf(f tt.T) key { return key{int8(f.N), f.Bits} }

// Stats returns a snapshot of the activity counters. Safe to call while
// other goroutines use the database.
func (db *DB) Stats() Stats {
	return Stats{
		Classified:     int(db.stats.classified.Load()),
		ClassCacheHits: int(db.stats.classCacheHits.Load()),
		Incomplete:     int(db.stats.incomplete.Load()),
		EntryCacheHits: int(db.stats.entryCacheHits.Load()),
		ExactSyntheses: int(db.stats.exactSyntheses.Load()),
		BoundedExact:   int(db.stats.boundedExact.Load()),
		DavioFallbacks: int(db.stats.davioFallbacks.Load()),
		Recovered:      int(db.stats.recovered.Load()),
		Quarantined:    int(db.stats.quarantined.Load()),

		SemiCanonHits:   int(db.stats.semiHits.Load()),
		SemiCanonMisses: int(db.stats.semiMisses.Load()),

		RefineAttempts:  int(db.stats.refineAttempts.Load()),
		RefineImproved:  int(db.stats.refineImproved.Load()),
		RefineProven:    int(db.stats.refineProven.Load()),
		RefineUnknown:   int(db.stats.refineUnknown.Load()),
		RefineRejected:  int(db.stats.refineRejected.Load()),
		RefineAndsSaved: int(db.stats.refineAndsSaved.Load()),
	}
}

// NumClasses returns the number of cached classifications.
func (db *DB) NumClasses() int { return db.classes.len() }

// Classify returns the (cached) affine classification of f. Concurrent
// callers classifying the same function may duplicate the computation, but
// all of them observe the same canonical Result (first insert wins).
func (db *DB) Classify(f tt.T) spectral.Result {
	k := keyOf(f)
	if res, ok := db.classes.get(k); ok {
		db.stats.classCacheHits.Add(1)
		return res
	}
	res := db.classifyMiss(f)
	if h := db.classifySteps.Load(); h != nil {
		h.Observe(float64(res.Steps))
	}
	res, inserted := db.classes.put(k, res)
	db.stats.classified.Add(1)
	if inserted && !res.Complete {
		db.stats.incomplete.Add(1)
	}
	return res
}

// classifyMiss computes the classification of f after a first-level cache
// miss. With TwoLevelClassify enabled, functions that admit a bounded
// semi-canonical key share one spectral search per semi-canonical class: the
// search runs on (and is cached for) the semi-canonical form, and the result
// is composed with the renaming recorded by the key. The compose step runs on
// hits and misses alike, so the returned Result for a given function is
// identical regardless of cache state or request order.
func (db *DB) classifyMiss(f tt.T) spectral.Result {
	if db.semi != nil && f.N > 4 {
		if canon, perm, inCompl, outCompl, ok := f.SemiCanonical(); ok {
			ck := keyOf(canon)
			cres, hit := db.semi.get(ck)
			if hit {
				db.stats.semiHits.Add(1)
			} else {
				db.stats.semiMisses.Add(1)
				cres = spectral.Classify(canon, db.opts.ClassifyLimit)
				cres, _ = db.semi.put(ck, cres)
			}
			return spectral.ComposeRenaming(cres, perm, inCompl, outCompl)
		}
		// Tie enumeration overflow: no usable key, classify directly.
		db.stats.semiMisses.Add(1)
	}
	return spectral.Classify(f, db.opts.ClassifyLimit)
}

// Lookup classifies f and returns the stored (or freshly synthesized)
// circuit of its class representative together with the classification. The
// recorded transform is AND-free, so Entry.MC() AND gates suffice to
// implement f. Lookup always returns the MC-best circuit; use LookupModel to
// select under a different cost model.
func (db *DB) Lookup(f tt.T) (*Entry, spectral.Result) {
	res := db.Classify(f)
	e := db.EntryFor(res.Repr)
	// Fault-injection point: tests corrupt the returned entry here to prove
	// that the rewriter's per-replacement verification rejects it.
	faultinject.Inject(faultinject.PointDBEntry, e)
	return e, res
}

// implOf summarizes a stored entry for model-driven selection.
func implOf(e *Entry) cost.Impl {
	return cost.Impl{Ands: e.MC(), Xors: e.XorCost(), Depth: e.AndDepth()}
}

// LookupModel is Lookup with model-driven entry selection: when the class
// representative's Pareto front holds several circuits (say, an MC-optimal
// one and a shallower one with an extra AND), the model's Better ordering
// picks the preferred implementation. For the MC model this returns exactly
// what Lookup returns. LookupModel is exactly Classify followed by
// EntryModel on the representative.
func (db *DB) LookupModel(f tt.T, m cost.Model) (*Entry, spectral.Result) {
	res := db.Classify(f)
	return db.EntryModel(res.Repr, m), res
}

// EntryModel returns the circuit of class representative repr that the
// model's Better ordering prefers among the class's Pareto front,
// synthesizing the front head on a miss. It does not classify repr. Callers
// that may discard the result after classification (the rewriting engine
// skips incomplete classes) call Classify first and EntryModel only when the
// entry will be used, so no synthesis is spent on circuits nobody reads.
func (db *DB) EntryModel(repr tt.T, m cost.Model) *Entry {
	best := func() *Entry {
		// The unlock must be deferred: a panic during synthesis (e.g. a
		// corrupted entry failing verification) is recovered by the engine's
		// per-node containment, and a mutex left locked would deadlock every
		// later lookup.
		db.mu.Lock()
		defer db.mu.Unlock()
		best := db.entryForLocked(repr) // synthesizes the front head on a miss
		for _, e := range db.entries[keyOf(repr)][1:] {
			if m.Better(implOf(e), implOf(best)) {
				best = e
			}
		}
		return best
	}()
	// Same fault-injection point as Lookup: the selected entry, whatever the
	// model, must pass the rewriter's per-replacement verification.
	faultinject.Inject(faultinject.PointDBEntry, best)
	return best
}

// AddAlternate offers an extra verified circuit for e.F's Pareto front, e.g.
// a depth-oriented implementation found out of band. It is kept only if no
// stored circuit dominates it under (MC, AndDepth); dominated incumbents are
// evicted. Returns true if the entry was stored.
func (db *DB) AddAlternate(e *Entry) (bool, error) {
	if err := e.Verify(); err != nil {
		return false, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// Materialize the front head first so the MC-best head invariant cannot
	// be broken by an alternate arriving before the representative circuit.
	db.entryForLocked(e.F)
	return db.addEntryLocked(e), nil
}

// addEntryLocked inserts e into its function's Pareto front under
// (MC, AndDepth). Ties with an incumbent keep the incumbent — so repeated
// loads are idempotent and the head stays the first MC-best circuit seen —
// unless e carries strictly stronger proof bits (Exact, then Refined), in
// which case the proof-carrying circuit replaces the tied incumbent. That
// upgrade is what lets the refiner stamp an existing circuit proven-optimal
// and what keeps the stamp across journal replay, where the unproven
// circuit is always admitted first.
// Callers must hold db.mu, and e must already be verified.
func (db *DB) addEntryLocked(e *Entry) bool {
	k := keyOf(e.F)
	list := db.entries[k]
	eMC, eAD := e.MC(), e.AndDepth()
	for i, old := range list {
		if old.MC() <= eMC && old.AndDepth() <= eAD {
			if old.MC() == eMC && old.AndDepth() == eAD && strongerProof(e, old) {
				list[i] = e // same Pareto point, stronger proof: swap in place
				if db.onNew != nil {
					db.onNew(e)
				}
				return true
			}
			return false // dominated by (or tied with) a stored circuit
		}
	}
	kept := list[:0:0]
	for _, old := range list {
		if eMC <= old.MC() && eAD <= old.AndDepth() {
			continue // strictly dominated by e (ties returned above)
		}
		kept = append(kept, old)
	}
	kept = append(kept, e)
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].MC() != kept[j].MC() {
			return kept[i].MC() < kept[j].MC()
		}
		if kept[i].AndDepth() != kept[j].AndDepth() {
			return kept[i].AndDepth() < kept[j].AndDepth()
		}
		return kept[i].XorCost() < kept[j].XorCost()
	})
	db.entries[k] = kept
	if db.onNew != nil {
		db.onNew(e)
	}
	return true
}

// strongerProof reports whether e's proof bits strictly dominate old's:
// an optimality proof (Exact) outranks everything, the Refined provenance
// mark breaks ties among equally-proven circuits.
func strongerProof(e, old *Entry) bool {
	if e.Exact != old.Exact {
		return e.Exact
	}
	return e.Refined && !old.Refined
}

// EntryFor returns a circuit computing exactly f (no classification of f
// itself; subfunctions encountered during synthesis are classified and
// cached by class). Entries are immutable once returned.
func (db *DB) EntryFor(f tt.T) *Entry {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.entryForLocked(f)
}

func (db *DB) entryForLocked(f tt.T) *Entry {
	k := keyOf(f)
	if list, ok := db.entries[k]; ok {
		db.stats.entryCacheHits.Add(1)
		return list[0]
	}
	db.building[k] = true
	e := db.synthesize(f)
	delete(db.building, k)
	if err := e.Verify(); err != nil {
		panic(err) // internal invariant: every stored entry computes F
	}
	db.entries[k] = []*Entry{e}
	if db.onNew != nil {
		db.onNew(e)
	}
	return e
}

// AndCost returns the AND count of the best circuit the database can build
// for f.
func (db *DB) AndCost(f tt.T) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.andCostLocked(f)
}

func (db *DB) andCostLocked(f tt.T) int {
	if _, _, ok := f.IsAffine(); ok {
		return 0
	}
	sh, _ := f.Shrink()
	res := db.Classify(sh)
	if db.building[keyOf(res.Repr)] {
		// Cycle through an in-flight representative: fall back to a direct
		// Davio estimate, which strictly reduces the support.
		best := 1 << 20
		for i := 0; i < sh.N; i++ {
			if !sh.DependsOn(i) {
				continue
			}
			f0 := sh.Cofactor(i, false)
			g := f0.Xor(sh.Cofactor(i, true))
			if c := db.andCostLocked(f0) + db.andCostLocked(g) + 1; c < best {
				best = c
			}
		}
		return best
	}
	return db.entryForLocked(res.Repr).MC()
}

// synthesize builds the best circuit the database can find for f.
// Callers must hold db.mu.
func (db *DB) synthesize(f tt.T) *Entry {
	b := &builder{n: f.N, exact: true}
	out := db.emitDirect(b, f)
	return &Entry{
		N:     f.N,
		F:     f,
		Steps: b.steps,
		Out:   out,
		Exact: b.exact,
	}
}

// builder assembles an SLP; the emit functions return basis masks.
type builder struct {
	n     int
	steps []Step
	exact bool // true while the whole construction is proven optimal
}

func (b *builder) and(l, m uint32) uint32 {
	b.steps = append(b.steps, Step{L: l, M: m})
	return 1 << uint(1+b.n+len(b.steps)-1)
}

func affineMask(mask uint, compl bool, varBit func(int) uint32, n int) uint32 {
	var out uint32
	for i := 0; i < n; i++ {
		if mask>>uint(i)&1 == 1 {
			out ^= varBit(i)
		}
	}
	if compl {
		out ^= 1
	}
	return out
}

// emit appends gates computing f to the builder and returns the output
// mask. Subfunctions are classified so that circuits are shared per affine
// class. Callers must hold db.mu.
func (db *DB) emit(b *builder, f tt.T) uint32 {
	if mask, compl, ok := f.IsAffine(); ok {
		return affineMask(mask, compl, func(i int) uint32 { return 1 << uint(1+i) }, f.N)
	}
	sh, from := f.Shrink()
	res := db.Classify(sh)
	if db.building[keyOf(res.Repr)] {
		return db.emitDirect(b, f)
	}
	e := db.entryForLocked(res.Repr)
	if !e.Exact {
		b.exact = false
	}
	return inlineTransformed(b, e, res.Tr, from)
}

// emitDirect synthesizes f without classifying f itself: exhaustive search
// first, then Davio decomposition whose subfunctions go back through emit.
// Callers must hold db.mu.
func (db *DB) emitDirect(b *builder, f tt.T) uint32 {
	if mask, compl, ok := f.IsAffine(); ok {
		return affineMask(mask, compl, func(i int) uint32 { return 1 << uint(1+i) }, f.N)
	}

	// Shrink to the support and search there: the exhaustive search cost
	// grows with 4^(basis size). The budget shrinks with the support so
	// that wide functions whose optimality proof is out of reach abort to
	// the Davio fallback quickly; up to four variables the full budget
	// always suffices for a proven-optimal circuit.
	sh, from := f.Shrink()
	budget := db.opts.SearchBudget
	for n := sh.N; n > 4; n-- {
		budget /= 16
	}
	e, exact, _ := ExactSearchContext(db.context(), sh, db.opts.MaxExactK, budget)
	if e != nil {
		if exact {
			db.stats.exactSyntheses.Add(1)
		} else {
			db.stats.boundedExact.Add(1)
			b.exact = false
		}
		return inlineTransformed(b, e, identityTransform(sh.N), from)
	}
	b.exact = false
	db.stats.davioFallbacks.Add(1)

	// Affine Davio decomposition on the cheapest support variable:
	// f = f0 ⊕ x_i ∧ (f0 ⊕ f1).
	bestI, bestCost := -1, 1<<21
	for i := 0; i < f.N; i++ {
		if !f.DependsOn(i) {
			continue
		}
		f0 := f.Cofactor(i, false)
		g := f0.Xor(f.Cofactor(i, true))
		if c := db.andCostLocked(f0) + db.andCostLocked(g) + 1; c < bestCost {
			bestI, bestCost = i, c
		}
	}
	f0 := f.Cofactor(bestI, false)
	g := f0.Xor(f.Cofactor(bestI, true))
	out0 := db.emit(b, f0)
	outG := db.emit(b, g)
	a := b.and(1<<uint(1+bestI), outG)
	return out0 ^ a
}

func identityTransform(n int) spectral.Transform {
	tr := spectral.Transform{N: n}
	for i := 0; i < n; i++ {
		tr.InputMask[i] = 1 << uint(i)
	}
	return tr
}

// inlineTransformed copies entry e (over shrunk variables) into the builder,
// wrapping it in the affine transform tr and renaming shrunk variable j to
// builder variable from[j]. The transform and renaming are XOR/complement
// only, so no AND gates are added beyond e's steps.
func inlineTransformed(b *builder, e *Entry, tr spectral.Transform, from []int) uint32 {
	varBit := func(j int) uint32 { return 1 << uint(1+from[j]) }
	// val[i] is the builder-basis mask of entry basis element i.
	val := make([]uint32, 1+e.N+len(e.Steps))
	val[0] = 1
	for i := 0; i < e.N; i++ {
		val[1+i] = affineMask(tr.InputMask[i], tr.InputCompl[i], varBit, e.N)
	}
	translate := func(mask uint32) uint32 {
		var out uint32
		for mask != 0 {
			i := bits.TrailingZeros32(mask)
			mask &= mask - 1
			out ^= val[i]
		}
		return out
	}
	for si, st := range e.Steps {
		a := b.and(translate(st.L), translate(st.M))
		val[1+e.N+si] = a
	}
	out := translate(e.Out)
	out ^= affineMask(tr.OutputMask, tr.OutputCompl, varBit, e.N)
	return out
}
