package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cost"
	"repro/internal/cut"
	"repro/internal/mcdb"
	"repro/internal/sim"
	"repro/internal/spectral"
	"repro/internal/tt"
	"repro/internal/xag"
	"repro/mcc"
)

// layerJob is one optimization the traced pass replays in process, with
// the options the end-to-end pass used for it.
type layerJob struct {
	name     string
	data     []byte // the Bristol bytes the program received
	cost     string
	workers  int  // 0 = GOMAXPROCS, as mcopt; 1 for a server request
	verify   bool // the end-of-round miter, on for server requests
	sharedDB bool // one database across jobs, warmed like mcserved's
}

// supportSizes are the cut support sizes the funnel reports.
var supportSizes = []int{2, 3, 4, 5, 6}

// serverWarmup is the circuit mcserved optimizes at startup by default.
const serverWarmup = "adder-32"

// perLayerNames lists the metrics every traced run reports.
func perLayerNames() []string {
	names := []string{
		"core.enumerate_s", "core.classify_s", "core.commit_s", "core.other_s",
		"core.rounds", "core.classified", "core.replacements", "core.incomplete_cuts", "core.commit_conflicts",
		"cut.enumerate_s",
		"mcdb.classes", "mcdb.classified", "mcdb.class_hit_rate", "mcdb.exact_syntheses", "mcdb.davio_fallbacks",
		"xag.read_bristol_s", "xag.write_bristol_s", "xag.cleanup_s", "xag.canonical_hash_s",
		"sim.equal_s",
		"server.hit_ms_p50", "server.miss_ms_p50", "server.coalesced", "server.repeat_misses", "server.rejected", "server.queue_wait_s",
		"server.mcdb_class_hit_rate", "rescache.hit_ratio", "rescache.evictions",
		"trace.untraced_compile_s", "trace.traced_compile_s", "trace.overhead_ratio", "trace.layers_s",
	}
	for _, n := range supportSizes {
		names = append(names,
			fmt.Sprintf("cut.cuts.n%d", n),
			fmt.Sprintf("spectral.functions.n%d", n),
			fmt.Sprintf("spectral.complete.n%d", n),
			fmt.Sprintf("spectral.complete_ratio.n%d", n),
			fmt.Sprintf("spectral.classify_s.n%d", n),
			fmt.Sprintf("mcdb.lookup_s.n%d", n))
	}
	return names
}

func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s") || strings.Contains(name, "_s.n"):
		return "s"
	case strings.Contains(name, "_ms_"):
		return "ms"
	case strings.Contains(name, "ratio") || strings.Contains(name, "rate"):
		return "ratio"
	}
	return "count"
}

func modelOf(name string) cost.Model {
	if name == "depth" {
		return cost.Depth()
	}
	return cost.MC()
}

// runLayers replays the jobs in process and times each call into the
// program's packages from outside, recording a span per call. Stage spans
// of the engine are children of their mcc.Optimize span, laid out from the
// RoundStats durations.
func runLayers(ctx context.Context, jobs []layerJob, seed int64, tr *tracer, parent int) (map[string]float64, error) {
	start := time.Now()
	m := map[string]float64{}
	timed := func(parent int, name, metric string, f func()) {
		t0 := time.Now()
		f()
		t1 := time.Now()
		tr.add(parent, name, t0, t1, nil)
		m[metric] += t1.Sub(t0).Seconds()
	}

	var shared *mcdb.DB
	var dbs []*mcdb.DB
	funcs := map[string][]tt.T{} // distinct shrunk cut functions per circuit
	for _, job := range jobs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cid, endCircuit := tr.begin(parent, "circuit "+job.name+"/"+job.cost)
		db := shared
		if !job.sharedDB || shared == nil {
			db = mcdb.New(mcdb.Options{})
			dbs = append(dbs, db)
		}
		if job.sharedDB && shared == nil {
			shared = db
			_, endWarm := tr.begin(cid, "warmup "+serverWarmup)
			b, _ := bench.ByName(serverWarmup)
			mcc.Optimize(ctx, b.Build(), mcc.WithDB(shared))
			endWarm(nil)
		}

		var net *xag.Network
		var err error
		t0 := time.Now()
		timed(cid, "xag.ReadBristol", "xag.read_bristol_s", func() { net, err = xag.ReadBristol(bytes.NewReader(job.data)) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", job.name, err)
		}

		o0 := time.Now()
		res := mcc.Optimize(ctx, net, mcc.WithCost(modelOf(job.cost)), mcc.WithDB(db),
			mcc.WithWorkers(job.workers), mcc.WithVerify(job.verify))
		o1 := time.Now()
		if res.Err != nil {
			return nil, fmt.Errorf("%s/%s: mcc.Optimize: %w", job.name, job.cost, res.Err)
		}
		oid := tr.add(cid, "mcc.Optimize", o0, o1, map[string]any{"rounds": len(res.Rounds), "cost": job.cost})
		stages := 0.0
		cursor := o0
		for i, r := range res.Rounds {
			rid := tr.add(oid, fmt.Sprintf("core.round %d", i+1), cursor, cursor.Add(r.Duration),
				map[string]any{"replacements": r.Replacements, "and_before": r.Before.And, "and_after": r.After.And})
			s := cursor
			for _, st := range []struct {
				name string
				d    time.Duration
			}{{"enumerate", r.EnumerateTime}, {"classify", r.ClassifyTime}, {"commit", r.CommitTime}} {
				tr.add(rid, "core."+st.name, s, s.Add(st.d), nil)
				s = s.Add(st.d)
				m["core."+st.name+"_s"] += st.d.Seconds()
				stages += st.d.Seconds()
			}
			cursor = cursor.Add(r.Duration)
			m["core.classified"] += float64(r.Classified)
			m["core.replacements"] += float64(r.Replacements)
			m["core.commit_conflicts"] += float64(r.CommitConflicts)
		}
		m["core.other_s"] += o1.Sub(o0).Seconds() - stages
		m["core.rounds"] += float64(len(res.Rounds))
		m["core.incomplete_cuts"] += float64(res.Degraded.IncompleteClassifications)

		timed(cid, "xag.WriteBristol", "xag.write_bristol_s", func() { err = res.Network.WriteBristol(io.Discard) })
		if err != nil {
			return nil, err
		}
		m["trace.traced_compile_s"] += time.Since(t0).Seconds()
		timed(cid, "xag.Cleanup", "xag.cleanup_s", func() { net.Cleanup() })
		timed(cid, "xag.CanonicalHash", "xag.canonical_hash_s", func() { net.CanonicalHash() })
		timed(cid, "sim.Equal", "sim.equal_s", func() { err = sim.Equal(net, res.Network, 8, uint64(seed)) })
		if err != nil {
			return nil, fmt.Errorf("%s/%s: in-process output differs from its input: %w", job.name, job.cost, err)
		}

		fs, ok := funcs[job.name]
		if !ok {
			fs = cutLayer(net, cid, tr, m)
			funcs[job.name] = fs
		}
		// Lookups on a fresh database, so every class is synthesized once
		// as a cold run pays for it.
		fresh := mcdb.New(mcdb.Options{})
		model := modelOf(job.cost)
		for _, n := range supportSizes {
			_, endLookup := tr.begin(cid, fmt.Sprintf("mcdb.LookupModel n=%d", n))
			t := time.Now()
			for _, f := range fs {
				if f.N == n {
					fresh.LookupModel(f, model)
				}
			}
			m[fmt.Sprintf("mcdb.lookup_s.n%d", n)] += time.Since(t).Seconds()
			endLookup(nil)
		}
		endCircuit(nil)
	}

	var st mcdb.Stats
	for _, db := range dbs {
		s := db.Stats()
		st.Classified += s.Classified
		st.ClassCacheHits += s.ClassCacheHits
		st.ExactSyntheses += s.ExactSyntheses
		st.DavioFallbacks += s.DavioFallbacks
		m["mcdb.classes"] += float64(db.NumClasses())
	}
	m["mcdb.classified"] = float64(st.Classified)
	m["mcdb.class_hit_rate"] = st.ClassHitRate()
	m["mcdb.exact_syntheses"] = float64(st.ExactSyntheses)
	m["mcdb.davio_fallbacks"] = float64(st.DavioFallbacks)
	for _, n := range supportSizes {
		if f := m[fmt.Sprintf("spectral.functions.n%d", n)]; f > 0 {
			m[fmt.Sprintf("spectral.complete_ratio.n%d", n)] = m[fmt.Sprintf("spectral.complete.n%d", n)] / f
		}
	}
	// Layers that only the server has read 0 outside serve-warm; the
	// caller overwrites them with what the server pass observed.
	for _, k := range perLayerNames() {
		if _, ok := m[k]; !ok {
			m[k] = 0
		}
	}
	m["trace.layers_s"] = time.Since(start).Seconds()
	return m, nil
}

// cutLayer enumerates the cuts of net as the engine's first round does
// (K=6, 12 priority cuts), counts them by support size after Shrink, and
// classifies each distinct shrunk function once at the database's default
// limit. It returns the distinct functions in a fixed order.
func cutLayer(net *xag.Network, parent int, tr *tracer, m map[string]float64) []tt.T {
	t0 := time.Now()
	cs := cut.Enumerate(net, cut.Params{K: 6, Limit: 12})
	t1 := time.Now()
	tr.add(parent, "cut.Enumerate", t0, t1, nil)
	m["cut.enumerate_s"] += t1.Sub(t0).Seconds()

	seen := map[tt.T]bool{}
	var fs []tt.T
	for id := 0; id < net.NumNodes(); id++ {
		if !net.IsGate(id) {
			continue
		}
		for _, c := range cs.For(id) {
			f, _ := c.Table.Shrink()
			if f.N < 2 {
				continue
			}
			m[fmt.Sprintf("cut.cuts.n%d", f.N)]++
			if !seen[f] {
				seen[f] = true
				fs = append(fs, f)
			}
		}
	}
	slices.SortFunc(fs, func(a, b tt.T) int {
		if a.N != b.N {
			return a.N - b.N
		}
		return cmp.Compare(a.Bits, b.Bits)
	})
	for _, n := range supportSizes {
		_, endClassify := tr.begin(parent, fmt.Sprintf("spectral.Classify n=%d", n))
		t := time.Now()
		funcs, complete := 0, 0
		for _, f := range fs {
			if f.N != n {
				continue
			}
			funcs++
			if spectral.Classify(f, spectral.DefaultLimit).Complete {
				complete++
			}
		}
		m[fmt.Sprintf("spectral.classify_s.n%d", n)] += time.Since(t).Seconds()
		m[fmt.Sprintf("spectral.functions.n%d", n)] += float64(funcs)
		m[fmt.Sprintf("spectral.complete.n%d", n)] += float64(complete)
		endClassify(map[string]any{"functions": funcs, "complete": complete})
	}
	return fs
}
