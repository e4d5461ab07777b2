package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// Circuits of the two CLI workloads, smallest first.
var (
	coldLadderCircuits = []string{"adder-64", "sha-256-round", "multiplier", "square-root", "voter", "max", "speck-64-96", "sine"}
	deepHashCircuits   = []string{"md5", "sha-1"}
)

const (
	// setupRepeats is how many one-gate mcopt runs one pass times for setup_s.
	setupRepeats = 7
	// processTimeout bounds one mcopt run.
	processTimeout = 60 * time.Second
)

// oneGate is the smallest circuit mcopt accepts: a single AND.
const oneGate = "1 3\n2 1 1\n1 1\n\n2 1 0 1 2 AND\n"

func newPass() *pass {
	return &pass{metrics: map[string]float64{}, layer: map[string]float64{}, extra: map[string]float64{}, digests: map[string]string{}}
}

// prepareCLI writes the renumbered inputs, then each pass runs one mcopt
// process per circuit with default options, so every circuit starts from
// a cold database, and judges each output.
func prepareCLI(names []string) func(e *env) (passFunc, error) {
	return func(e *env) (passFunc, error) {
		var ins []*input
		for _, name := range names {
			gen, err := generate(name)
			if err != nil {
				return nil, err
			}
			in, err := makeInputs(name, gen, e.seed, 1)
			if err != nil {
				return nil, err
			}
			if err := os.WriteFile(filepath.Join(e.work, name+".txt"), in[0].data, 0o644); err != nil {
				return nil, err
			}
			ins = append(ins, in[0])
		}
		one := filepath.Join(e.work, "one-gate.txt")
		if err := os.WriteFile(one, []byte(oneGate), 0o644); err != nil {
			return nil, err
		}
		return func(ctx context.Context, tr *tracer, parent int) (*pass, error) {
			return cliPass(ctx, e, tr, parent, ins, one)
		}, nil
	}
}

func cliPass(ctx context.Context, e *env, tr *tracer, parent int, ins []*input, one string) (*pass, error) {
	p := newPass()
	var setups []float64
	peakKB := int64(0)
	for i := 0; i < setupRepeats; i++ {
		wall, rss, err := runMcopt(ctx, e, one, one+".out")
		if err != nil {
			return nil, fmt.Errorf("setup run: %w", err)
		}
		setups = append(setups, wall.Seconds())
		peakKB = max(peakKB, rss)
	}

	var walls, andR, depthR []float64
	for _, in := range ins {
		inPath := filepath.Join(e.work, in.name+".txt")
		outPath := filepath.Join(e.work, in.name+".opt.txt")
		p.attempted++
		start := time.Now()
		wall, rss, err := runMcopt(ctx, e, inPath, outPath)
		tr.add(parent, "mcopt "+in.name, start, start.Add(wall), map[string]any{"rss_kb": rss})
		if err != nil {
			p.fail(fmt.Errorf("%s: %w", in.name, err))
			continue
		}
		peakKB = max(peakKB, rss)
		out, err := os.ReadFile(outPath)
		if err != nil {
			return nil, err
		}
		oc, err := judge(in, out, e.seed)
		if err != nil {
			p.fail(err)
			continue
		}
		walls = append(walls, wall.Seconds())
		p.extra["wall_s."+in.name] = wall.Seconds()
		andR = append(andR, float64(oc.ands())/float64(in.c.ands()))
		depthR = append(depthR, float64(oc.andDepth())/float64(in.c.andDepth()))
		digest := sha256.Sum256(out)
		p.digests[in.name] = hex.EncodeToString(digest[:])
		p.layerJobs = append(p.layerJobs, layerJob{name: in.name, data: in.data, cost: "mc"})
	}

	compile := sum(walls)
	p.metrics = map[string]float64{
		"setup_s":        median(setups),
		"compile_s":      compile,
		"peak_rss_mb":    float64(peakKB) / 1024,
		"and_ratio":      geomean(andR),
		"depth_ratio":    geomean(depthR),
		"throughput_rps": ratio(float64(len(walls)), compile),
		"latency_p50_ms": 1000 * median(walls),
		"latency_p99_ms": 1000 * quantile(walls, 0.99),
		// Every mcopt process starts with an empty database: all runs miss.
		"miss_latency_p50_ms": 1000 * median(walls),
	}
	p.extra["latency_samples"] = float64(len(walls))
	// The traced replay repeats exactly these compiles.
	p.layer["trace.untraced_compile_s"] = compile
	p.digests["and_ratio"] = fmt.Sprint(p.metrics["and_ratio"])
	p.digests["depth_ratio"] = fmt.Sprint(p.metrics["depth_ratio"])
	return p, nil
}

// runMcopt runs mcopt with default options and returns its wall time and
// peak resident set in KiB. A non-zero exit or a timeout is an error.
func runMcopt(ctx context.Context, e *env, in, out string) (time.Duration, int64, error) {
	ctx, cancel := context.WithTimeout(ctx, processTimeout)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, "mcopt"), "-in", in, "-out", out)
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return wall, 0, fmt.Errorf("mcopt: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	return wall, rss, nil
}
