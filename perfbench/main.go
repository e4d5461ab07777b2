// Command perfbench is the repository's end-to-end benchmark. It drives the
// mcopt CLI and the mcserved daemon on generated Bristol circuits, checks
// every output with its own Bristol evaluator, and reports the metrics in
// BENCHMARK.json; a traced run adds per-layer metrics measured in process
// from outside the program's packages. See README.md for the workloads and
// the metric map. Run it through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload all --seed 1 --seconds 40 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
)

// e2eUnits lists the end-to-end metrics every untraced run reports.
var e2eUnits = map[string]string{
	"setup_s":             "s",
	"compile_s":           "s",
	"peak_rss_mb":         "MB",
	"and_ratio":           "ratio",
	"depth_ratio":         "ratio",
	"throughput_rps":      "1/s",
	"latency_p50_ms":      "ms",
	"latency_p99_ms":      "ms",
	"miss_latency_p50_ms": "ms",
}

// env is what a workload needs from the command line.
type env struct {
	bin   string // directory holding the mcopt and mcserved binaries
	work  string // scratch directory for this run's files
	seed  int64
	trace bool
}

// pass is the outcome of one execution of a workload's fixed request set.
type pass struct {
	metrics   map[string]float64 // end-to-end metrics
	layer     map[string]float64 // per-layer metrics observed from the e2e pass (server.*)
	extra     map[string]float64 // reported in the summary only (sample counts, error_rate)
	attempted int
	failed    int
	errs      []string
	digests   map[string]string // output fingerprints for the determinism guard
	layerJobs []layerJob        // what the traced in-process pass replays
}

func (p *pass) fail(err error) {
	p.failed++
	p.errs = append(p.errs, err.Error())
}

// passFunc runs a workload's fixed request set once.
type passFunc func(ctx context.Context, tr *tracer, parent int) (*pass, error)

// A workload generates its inputs once per run in prepare, then runs
// passes over them. A run makes --seconds / passSeconds whole passes, at
// least one, so the pass count never depends on how fast a run happens to
// be. passSeconds is a budget, not a measured length: on a 2-CPU host a
// cold-ladder pass takes about 14 s, a serve-warm pass about 20 s and a
// deep-hash pass about 30 s.
type workload struct {
	name        string
	passSeconds int
	prepare     func(e *env) (passFunc, error)
}

var workloads = []workload{
	{"cold-ladder", 20, prepareCLI(coldLadderCircuits)},
	{"deep-hash", 40, prepareCLI(deepHashCircuits)},
	{"serve-warm", 20, prepareServeWarm},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "cold-ladder, deep-hash, serve-warm, or all")
		seed    = fs.Int64("seed", 1, "seed for input renumbering, oracle vectors and request order")
		seconds = fs.Int("seconds", 40, "measuring time, filled with whole passes (at least one)")
		trace   = fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
		bin     = fs.String("bin", ".bench_build/bin", "directory with the mcopt and mcserved binaries")
		work    = fs.String("work", ".bench_build", "directory for inputs, outputs, results and spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1, --trace 0|1 and no extra arguments")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q\n", *name)
		return 2
	}
	for _, tool := range []string{"mcopt", "mcserved"} {
		if _, err := os.Stat(filepath.Join(*bin, tool)); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v (build the program first; see run.sh)\n", err)
			return 2
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rc := runContext()
	fmt.Fprintf(stderr, "context: %s\n", mustJSON(rc))
	combined := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range selected {
		e := &env{bin: *bin, work: filepath.Join(*work, "run", fmt.Sprintf("%s-%d", w.name, os.Getpid())), seed: *seed, trace: *trace == 1}
		res, err := runWorkload(ctx, w, e, max(1, *seconds/w.passSeconds), *work, rc)
		os.RemoveAll(e.work)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		for _, msg := range res.errs {
			fmt.Fprintf(stderr, "FAIL %s: %s\n", w.name, msg)
		}
		printSummary(stderr, w.name, res)
		if len(selected) == 1 {
			fmt.Fprintln(stdout, mustJSON(res.result))
			return 0
		}
		combined.Correct = combined.Correct && res.Correct
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		for k, m := range res.Metrics {
			combined.Metrics[w.name+"."+k] = m
		}
	}
	fmt.Fprintln(stdout, mustJSON(combined))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line printed last on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type workloadResult struct {
	result
	extra map[string]float64
	errs  []string
}

// runWorkload makes n passes, reports each metric as the median over
// passes, and in a traced run adds the in-process layer pass.
func runWorkload(ctx context.Context, w workload, e *env, n int, work string, rc map[string]any) (*workloadResult, error) {
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	rootID, endRoot := tr.begin(0, "workload "+w.name)
	_, endPrepare := tr.begin(rootID, "prepare inputs")
	runPass, err := w.prepare(e)
	endPrepare(nil)
	if err != nil {
		return nil, err
	}
	var passes []*pass
	for len(passes) < n {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pid, endPass := tr.begin(rootID, fmt.Sprintf("pass %d", len(passes)+1))
		p, err := runPass(ctx, tr, pid)
		endPass(nil)
		if err != nil {
			return nil, err
		}
		if err := guardDeterminism(work, w.name, e.seed, p); err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}

	res := &workloadResult{result: result{Metrics: map[string]metric{}}, extra: map[string]float64{}}
	agg := func(get func(*pass) map[string]float64) map[string]float64 {
		vals := map[string][]float64{}
		for _, p := range passes {
			for k, v := range get(p) {
				vals[k] = append(vals[k], v)
			}
		}
		out := map[string]float64{}
		for k, v := range vals {
			out[k] = median(v)
		}
		return out
	}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		res.errs = append(res.errs, p.errs...)
	}
	e2e := agg(func(p *pass) map[string]float64 { return p.metrics })
	res.extra = agg(func(p *pass) map[string]float64 { return p.extra })
	res.extra["passes"] = float64(len(passes))
	res.extra["error_rate"] = ratio(float64(res.Failed), float64(res.Attempted))

	if e.trace {
		lid, endLayers := tr.begin(rootID, "layers")
		layers, err := runLayers(ctx, passes[0].layerJobs, e.seed, tr, lid)
		endLayers(nil)
		if err != nil {
			return nil, err
		}
		for k, v := range agg(func(p *pass) map[string]float64 { return p.layer }) {
			layers[k] = v
		}
		layers["trace.overhead_ratio"] = ratio(layers["trace.traced_compile_s"], layers["trace.untraced_compile_s"])
		for _, k := range perLayerNames() {
			v, ok := layers[k]
			if !ok {
				return nil, fmt.Errorf("traced run is missing layer metric %s", k)
			}
			res.Metrics[k] = metric{v, layerUnit(k)}
		}
	} else {
		for k, u := range e2eUnits {
			v, ok := e2e[k]
			if !ok {
				return nil, fmt.Errorf("pass is missing metric %s", k)
			}
			res.Metrics[k] = metric{v, u}
		}
	}
	endRoot(map[string]any{"seed": e.seed, "passes": len(passes)})
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if e.trace {
		// The traced run's own end-to-end figures, for the record.
		for k, v := range e2e {
			res.extra["e2e."+k] = v
		}
	}

	tag := fmt.Sprintf("%s-s%d-t%d", w.name, e.seed, b2i(e.trace))
	record := map[string]any{"workload": w.name, "seed": e.seed, "context": rc, "result": res.result, "extra": res.extra, "errors": res.errs}
	if err := writeJSON(filepath.Join(work, "results", tag+".json"), record); err != nil {
		return nil, err
	}
	if e.trace {
		if err := writeJSON(filepath.Join(work, "trace", tag+".spans.json"), tr.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func printSummary(w io.Writer, name string, res *workloadResult) {
	fmt.Fprintf(w, "== %s: %d attempted, %d failed, error_rate %.4f, %v passes\n",
		name, res.Attempted, res.Failed, res.extra["error_rate"], res.extra["passes"])
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if _, traced := res.Metrics["cut.cuts.n2"]; traced {
		fmt.Fprintf(w, "  yield funnel: %2s %10s %10s %10s %10s\n", "n", "cuts", "functions", "complete", "lookup_s")
		for _, n := range supportSizes {
			v := func(f string) float64 { return res.Metrics[fmt.Sprintf(f, n)].Value }
			fmt.Fprintf(w, "  yield funnel: %2d %10.0f %10.0f %10.0f %10.4f\n",
				n, v("cut.cuts.n%d"), v("spectral.functions.n%d"), v("spectral.complete.n%d"), v("mcdb.lookup_s.n%d"))
		}
	}
	var extras []string
	for k := range res.extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		fmt.Fprintf(w, "  %-28s %14.6g\n", k, res.extra[k])
	}
}

// runContext records what the numbers were measured with.
func runContext() map[string]any {
	return map[string]any{
		"commit":     sourceID(),
		"go":         runtime.Version(),
		"k":          6,
		"cut_limit":  12,
		"cost":       "mc (cold-ladder, deep-hash); mc and depth (serve-warm)",
		"workers":    "mcopt default 0 (=GOMAXPROCS); mcserved per-request default 1, 2 clients",
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(data)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// guardDeterminism compares a pass's output fingerprints with those
// recorded by the first pass with the same seed on the same source tree,
// and counts every difference as a failure.
func guardDeterminism(work, name string, seed int64, p *pass) error {
	path := filepath.Join(work, "determinism", sourceID(), fmt.Sprintf("%s-%d.json", name, seed))
	var prev map[string]string
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return writeJSON(path, p.digests)
	case err != nil:
		return err
	}
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	keys := make([]string, 0, len(prev))
	for k := range prev {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if got, ok := p.digests[k]; ok && got != prev[k] {
			p.fail(fmt.Errorf("determinism: %s is %s, an earlier run with seed %d gave %s", k, got, seed, prev[k]))
		}
	}
	return nil
}
