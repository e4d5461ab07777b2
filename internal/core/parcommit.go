package core

// Conflict-gated parallel commit (DESIGN.md §14).
//
// The commit stage is the engine's Amdahl ceiling: enumerate and classify
// fan out over workers, but commits must land in node-id order against an
// evolving network to keep the result byte-identical across worker counts.
// The expensive part of each commit step, however, is not the substitution
// — it is re-validating every candidate (leaf liveness, MFFC cost, gain)
// against the current network. This file moves exactly that work onto
// workers:
//
//  1. predict (parallel): every node's candidates are evaluated against the
//     round-start network — which is compact and immutable until the first
//     commit, so the evaluation is a pure read — recording the verdict
//     ("would this node rewrite?") and the read footprint: every node id
//     whose refs/repl state the evaluation consulted.
//
//  2. partition: predicted rewrites are greedily colored into conflict-free
//     batches — two rewrites share a batch iff their footprints are
//     disjoint. The partition feeds the mcc_commit_batches_total /
//     mcc_commit_batch_size instruments; it is the measure of available
//     commit parallelism.
//
//  3. execute (sequential scan, parallel effect): the id-order pass runs
//     with write capture armed on the network, so the set of pre-existing
//     nodes mutated by applied rewrites is known at every step. A node
//     predicted not to rewrite whose footprint no commit has touched is
//     finalized without re-evaluation — its sequential outcome is already
//     proven. Every other node (predicted rewrites, conflicted or
//     unpredictable nodes) re-runs the unmodified sequential step.
//
// Byte-identity is therefore structural, not empirical: the executor never
// trusts a prediction that later writes could have invalidated, and the
// work it skips is work the sequential pass would have done to conclude
// "no change". Substitutions themselves stay on the scan goroutine — node
// creation funnels through the shared structural-hash table, so applying
// even footprint-disjoint rewrites concurrently would race on the strash,
// the node arena, and the depth epoch; serializing only the accepted
// substitutions keeps the contended state single-writer while the per-node
// validation cost (the bulk of the stage on rewrite-sparse rounds) scales
// with workers.
//
// The parallel path is skipped — falling back to the reference pass — for
// depth-aware cost models (a depth read reaches arbitrarily deep into the
// TFI, so footprints would cover the network) and while a PointNode
// fault-injection hook is armed (skipping nodes would change how often the
// hook fires, which is exactly what the resilience tests count).

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/cut"
	"repro/internal/faultinject"
	"repro/internal/xag"
)

// parCommitMinLive is the minimum live-node count for the parallel commit:
// below it the prediction fan-out costs more than the pass it accelerates.
const parCommitMinLive = 64

// parCommitChunk is how many order slots an eval worker claims per fetch,
// amortizing the shared-counter traffic over a run of nodes.
const parCommitChunk = 16

// parCommitEligible reports whether this round's commit stage can use the
// conflict-gated parallel path.
func (e *Engine) parCommitEligible(order []int) bool {
	return e.opts.Workers > 1 &&
		!e.opts.SequentialCommit &&
		!e.opts.Cost.NeedsDepth() &&
		len(order) >= parCommitMinLive &&
		!faultinject.Armed(faultinject.PointNode)
}

// commitVerdict is the predictor's output for one node: whether the node
// would rewrite against the round-start network, and the read footprint
// that conclusion depends on. A nil footprint marks an unpredictable node
// (the predictor panicked) that must re-run sequentially.
type commitVerdict struct {
	attempt bool
	fp      []int32
}

// regionRec deduplicates the node ids a candidate evaluation reads,
// building the footprint in first-read order.
type regionRec struct {
	rs  xag.RegionStamp
	ids []int32
}

func (r *regionRec) reset(n int) {
	r.rs.Reset(n)
	r.ids = r.ids[:0]
}

func (r *regionRec) add(id int) {
	if r.rs.Add(id) {
		r.ids = append(r.ids, int32(id))
	}
}

// int32Arena block-allocates footprint slices so a worker's thousands of
// small footprints cost a handful of allocations instead of one each.
type int32Arena struct{ cur []int32 }

func (a *int32Arena) copy(src []int32) []int32 {
	if cap(a.cur)-len(a.cur) < len(src) {
		size := 1 << 14
		if len(src) > size {
			size = len(src)
		}
		a.cur = make([]int32, 0, size)
	}
	base := len(a.cur)
	a.cur = append(a.cur, src...)
	return a.cur[base:len(a.cur):len(a.cur)]
}

// predictNode evaluates one node's candidates against the (immutable,
// compact) round-start network. It must have no observable side effects:
// no logging, no degradation counting, no network mutation — a panic is
// swallowed into the conservative "unpredictable" verdict and the
// sequential re-run recovers, counts, and logs it for real.
func (e *Engine) predictNode(net *xag.Network, id int, cuts []cut.Cut, prep []prepared, sc *commitScratch, rec *regionRec, arena *int32Arena) (v commitVerdict) {
	defer func() {
		if recover() != nil {
			v = commitVerdict{attempt: true, fp: nil}
		}
	}()
	rec.reset(net.NumNodes())
	best := e.bestReplacement(net, id, cuts, prep, sc, rec)
	return commitVerdict{attempt: best != nil, fp: arena.copy(rec.ids)}
}

// evalCommitStage runs the prediction pass: workers claim chunks of the
// node order and fill the per-id verdict table. Workers read only the
// compact round-start network and write only their own verdict slots.
func (e *Engine) evalCommitStage(ctx context.Context, net *xag.Network, order []int, cuts *cut.Set, prep [][]prepared) ([]commitVerdict, error) {
	verdicts := make([]commitVerdict, net.NumNodes())
	workers := e.opts.Workers
	if workers > (len(order)+parCommitChunk-1)/parCommitChunk {
		workers = (len(order) + parCommitChunk - 1) / parCommitChunk
	}
	if workers < 1 {
		workers = 1
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		canceled atomic.Bool
	)
	work := func() {
		defer wg.Done()
		var sc commitScratch
		var rec regionRec
		var arena int32Arena
		for {
			base := int(next.Add(parCommitChunk)) - parCommitChunk
			if base >= len(order) {
				return
			}
			if ctx.Err() != nil {
				canceled.Store(true)
				return
			}
			end := min(base+parCommitChunk, len(order))
			for _, id := range order[base:end] {
				if !net.IsGate(id) {
					continue
				}
				verdicts[id] = e.predictNode(net, id, cuts.For(id), prep[id], &sc, &rec, &arena)
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go work()
	}
	wg.Wait()
	if canceled.Load() || ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return verdicts, nil
}

// partitionAttempts greedily colors the predicted rewrites into
// conflict-free batches in node-id order: each rewrite takes the lowest
// batch whose members' footprints it does not intersect, tracked as a
// per-node 64-bit batch membership mask. Batches beyond 63 collapse into
// the last lane (an all-conflict chain on a 64+-rewrite round — the
// degenerate case is still well-formed, just coarsely counted). Returns the
// batch count and per-batch sizes.
func partitionAttempts(numNodes int, order []int, verdicts []commitVerdict) (batches int, sizes []int) {
	var claimed []uint64
	for _, id := range order {
		v := verdicts[id]
		if !v.attempt || v.fp == nil {
			continue
		}
		if claimed == nil {
			claimed = make([]uint64, numNodes)
		}
		var used uint64
		for _, t := range v.fp {
			used |= claimed[t]
		}
		b := bits.TrailingZeros64(^used)
		if b > 63 {
			b = 63
		}
		for _, t := range v.fp {
			claimed[t] |= 1 << uint(b)
		}
		for len(sizes) <= b {
			sizes = append(sizes, 0)
		}
		sizes[b]++
	}
	return len(sizes), sizes
}

// footprintClean reports whether no captured write hit the footprint.
func footprintClean(ws *xag.RegionStamp, fp []int32) bool {
	for _, id := range fp {
		if ws.Has(int(id)) {
			return false
		}
	}
	return true
}

// commitStageParallel is the conflict-gated commit pass. It walks the same
// node order as commitStage with the same guards, budget, and cancellation
// stride, but skips — without re-evaluation — every node whose predicted
// "no rewrite" verdict is proven still valid: no commit so far has written
// into the node's read footprint. All other nodes run the unmodified
// sequential step, so the committed network is byte-identical to
// commitStage for every worker count.
func (e *Engine) commitStageParallel(ctx context.Context, net *xag.Network, order []int, cuts *cut.Set, prep [][]prepared, stats *RoundStats, deg *Degradation) error {
	verdicts, err := e.evalCommitStage(ctx, net, order, cuts, prep)
	if err != nil {
		return err
	}
	batches, sizes := partitionAttempts(net.NumNodes(), order, verdicts)
	stats.CommitBatches = batches
	e.met.observeCommitPartition(sizes)

	var ws xag.RegionStamp
	ws.Reset(net.NumNodes())
	net.BeginWriteCapture(&ws)
	defer net.EndWriteCapture()
	for step, id := range order {
		if step%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if e.opts.MaxRewritesPerRound > 0 && stats.Replacements >= e.opts.MaxRewritesPerRound {
			break
		}
		if !net.IsGate(id) {
			continue
		}
		v := verdicts[id]
		if !v.attempt && v.fp != nil {
			if footprintClean(&ws, v.fp) {
				stats.CommitSkipped++
				continue
			}
			stats.CommitConflicts++
		}
		if net.Resolve(xag.MakeLit(id, false)).Node() != id {
			continue // already replaced in this round
		}
		if net.Ref(id) == 0 {
			continue // died as part of an earlier replacement
		}
		if e.commitNodeProtected(net, id, cuts.For(id), prep[id], stats, deg) {
			stats.Replacements++
		}
	}
	return nil
}
