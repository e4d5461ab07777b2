package bench

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"

	"repro/mcc"
)

// The golden regression suite pins the optimizer's results — AND count, AND
// depth, and XOR count after optimization — for every benchmark under every
// cost model, at worker counts 1 and 4. Any engine change that shifts a
// result, improves it, regresses it, or makes it depend on parallelism shows
// up as a diff against testdata/golden.json.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/bench -run TestGolden -update
//	go test ./internal/bench -run TestGolden -update -golden.heavy
//
// The heavy benchmarks (ciphers and full hash blocks, minutes of runtime)
// stay pinned in the file but only execute with -golden.heavy.
var (
	updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json with current results")
	goldenHeavy  = flag.Bool("golden.heavy", false, "also run the heavy (multi-minute) golden benchmarks")
)

// goldenOptions fixes the engine configuration the pins are taken under.
// MaxRounds is bounded so the suite measures the rewriting the paper's flow
// performs without waiting for full convergence on every circuit.
const goldenMaxRounds = 2

// goldenEntry is one pinned result.
type goldenEntry struct {
	And      int `json:"and"`
	AndDepth int `json:"and_depth"`
	Xor      int `json:"xor"`
}

// goldenFile maps benchmark name -> cost model -> pinned result.
type goldenFile map[string]map[string]goldenEntry

const goldenPath = "testdata/golden.json"

// heavyBenchmarks exceed a few seconds of optimization time each; they run
// only under -golden.heavy so the tier-1 suite stays fast.
var heavyBenchmarks = map[string]bool{
	"des-like": true,
	"md5":      true,
	"sha-1":    true,
	"sha-256":  true,
	"sha-512":  true,
}

var goldenModels = []string{"mc", "size", "depth"}

func goldenCost(name string) mcc.Cost {
	switch name {
	case "mc":
		return mcc.MC()
	case "size":
		return mcc.Size()
	case "depth":
		return mcc.Depth()
	}
	panic("unknown cost model " + name)
}

// compareGolden reports how got deviates from the pin; nil means identical.
// Factored out so the suite's failure condition is itself testable.
func compareGolden(bench, model string, got, want goldenEntry) error {
	if got != want {
		return fmt.Errorf("%s/%s: result drifted: and %d->%d, and_depth %d->%d, xor %d->%d",
			bench, model,
			want.And, got.And, want.AndDepth, got.AndDepth, want.Xor, got.Xor)
	}
	return nil
}

func readGoldenFile(t *testing.T) goldenFile {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	return g
}

func writeGoldenFile(t *testing.T, g goldenFile) {
	t.Helper()
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runGolden runs one benchmark under the golden configuration.
func runGolden(t *testing.T, db *mcc.DB, b Benchmark, model string, workers int) mcc.Result {
	t.Helper()
	res := mcc.Optimize(context.Background(), b.Build(),
		mcc.WithDB(db),
		mcc.WithCost(goldenCost(model)),
		mcc.WithWorkers(workers),
		mcc.WithMaxRounds(goldenMaxRounds),
	)
	if res.Err != nil {
		t.Fatalf("%s/%s: %v", b.Name, model, res.Err)
	}
	return res
}

// optimizeGolden runs one benchmark under the golden configuration and
// returns its pinned numbers.
func optimizeGolden(t *testing.T, db *mcc.DB, b Benchmark, model string, workers int) goldenEntry {
	t.Helper()
	return goldenEntryOf(runGolden(t, db, b, model, workers))
}

func goldenEntryOf(res mcc.Result) goldenEntry {
	c := res.Network.CountGates()
	return goldenEntry{And: c.And, AndDepth: c.AndDepth, Xor: c.Xor}
}

// TestGoldenResults is the regression gate. Every benchmark × cost model is
// optimized at workers=1 and workers=4 against one shared database; both runs
// must agree with each other (the determinism pin — results may not depend on
// parallelism or database warmth) and with testdata/golden.json.
func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("golden suite skipped under -race: it pins results, not memory safety")
	}

	all := append(append(EPFL(), MPC()...), Extended()...)
	var want goldenFile
	if !*updateGolden {
		want = readGoldenFile(t)
	}

	// One shared warm database across every subtest, exactly like the
	// long-running service: warmth must not influence any pinned result.
	db := mcc.NewDB()

	var mu sync.Mutex
	got := make(goldenFile)

	t.Run("suite", func(t *testing.T) {
		for _, b := range all {
			if heavyBenchmarks[b.Name] && !*goldenHeavy {
				continue
			}
			for _, model := range goldenModels {
				b, model := b, model
				t.Run(b.Name+"/"+model, func(t *testing.T) {
					t.Parallel()
					e1 := optimizeGolden(t, db, b, model, 1)
					e4 := optimizeGolden(t, db, b, model, 4)
					if e1 != e4 {
						t.Fatalf("nondeterministic across worker counts: w1=%+v w4=%+v", e1, e4)
					}
					mu.Lock()
					if got[b.Name] == nil {
						got[b.Name] = make(map[string]goldenEntry)
					}
					got[b.Name][model] = e1
					mu.Unlock()
					if !*updateGolden {
						pin, ok := want[b.Name][model]
						if !ok {
							t.Fatalf("no golden entry for %s/%s (regenerate with -update)", b.Name, model)
						}
						if err := compareGolden(b.Name, model, e1, pin); err != nil {
							t.Error(err)
						}
					}
				})
			}
		}
	})

	if *updateGolden {
		// Keep pins for benchmarks that were skipped this run (the heavy set
		// without -golden.heavy), so a fast -update never drops them.
		if prev, err := os.ReadFile(goldenPath); err == nil {
			var old goldenFile
			if json.Unmarshal(prev, &old) == nil {
				for name, models := range old {
					if _, ok := got[name]; !ok {
						got[name] = models
					}
				}
			}
		}
		writeGoldenFile(t, got)
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Logf("wrote %s with %d benchmarks: %v", goldenPath, len(names), names)
	}
}

// TestGoldenFileCoverage checks the pin file itself: every benchmark in every
// suite has an entry for every cost model, so a newly added benchmark cannot
// silently ship unpinned.
func TestGoldenFileCoverage(t *testing.T) {
	want := readGoldenFile(t)
	all := append(append(EPFL(), MPC()...), Extended()...)
	for _, b := range all {
		models, ok := want[b.Name]
		if !ok {
			t.Errorf("golden.json missing benchmark %s", b.Name)
			continue
		}
		for _, m := range goldenModels {
			if _, ok := models[m]; !ok {
				t.Errorf("golden.json missing %s/%s", b.Name, m)
			}
		}
	}
	for name := range want {
		if _, ok := ByName(name); !ok {
			t.Errorf("golden.json pins unknown benchmark %s", name)
		}
	}
}

// TestGoldenComparisonDetectsDrift is the suite's negative control: a
// perturbed result must fail the comparison. A compare function that shrugs
// at differences would make every pin above meaningless.
func TestGoldenComparisonDetectsDrift(t *testing.T) {
	base := goldenEntry{And: 100, AndDepth: 10, Xor: 250}
	if err := compareGolden("b", "mc", base, base); err != nil {
		t.Fatalf("identical entries compared unequal: %v", err)
	}
	perturbed := []goldenEntry{
		{And: 99, AndDepth: 10, Xor: 250},
		{And: 101, AndDepth: 10, Xor: 250}, // regressions and improvements both flag
		{And: 100, AndDepth: 11, Xor: 250},
		{And: 100, AndDepth: 10, Xor: 249},
	}
	for _, p := range perturbed {
		if err := compareGolden("b", "mc", p, base); err == nil {
			t.Errorf("drift %+v vs %+v not detected", p, base)
		}
	}
}

// TestMultiplierDepthNoRecoveredPanics pins the fix for a panic the
// per-replacement check used to raise on multiplier under the depth model
// ("functionOf cone escapes its leaves"): realizing a candidate strashed
// onto a gate an earlier commit of the round had substituted, so the
// realized cone escaped the cut leaves. Such a candidate is now rejected
// structurally, like a cyclic one, so the run counts no recovered panic
// (and the result cache may keep it) while its result stays on the pin.
func TestMultiplierDepthNoRecoveredPanics(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("golden suite skipped under -race: it pins results, not memory safety")
	}
	b, ok := ByName("multiplier")
	if !ok {
		t.Fatal("multiplier benchmark missing")
	}
	pin := readGoldenFile(t)["multiplier"]["depth"]
	for _, workers := range []int{1, 4} {
		res := runGolden(t, mcc.NewDB(), b, "depth", workers)
		if n := res.Degraded.RecoveredPanics; n != 0 {
			t.Errorf("workers=%d: %d recovered panics, want 0", workers, n)
		}
		if err := compareGolden(b.Name, "depth", goldenEntryOf(res), pin); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}
