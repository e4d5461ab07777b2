package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The serve-warm request mix: every (circuit, cost) key is sent once as a
// miss and then serveRepeats more times, each request in one of
// servePresentations renumberings, so a hit is found only through the
// result cache's renumbering-invariant canonical hash. First requests are
// 1/(1+serveRepeats) = 5 % of the stream: the 50th percentile falls among
// the hits and the 99th among the misses. All first requests are sent
// before the repeats, so every repeat meets a warm cache unless the
// server declined to cache the key's result.
var (
	serveCircuits = []string{"adder-64", "sha-256-round", "multiplier", "voter", "max"}
	serveCosts    = []string{"mc", "depth"}
)

const (
	serveRepeats       = 19
	servePresentations = 4
	serveClients       = 2
	// serveLaunches is how many times one pass starts mcserved to time
	// setup_s; the last instance serves the stream.
	serveLaunches  = 3
	requestTimeout = 70 * time.Second // mcserved answers 504 after its 60 s default deadline
	readyTimeout   = 60 * time.Second
)

type serveKey struct {
	circuit string
	cost    string
}

type serveRequest struct {
	key   int
	pres  int
	first bool // the key's first request: a miss

	latency time.Duration
	status  int
	cache   string // X-MC-Cache
	body    []byte
	err     error
}

// prepareServeWarm renders the presentations and envelopes and fixes the
// request order; each pass then starts mcserved, runs the stream and
// judges every response.
func prepareServeWarm(e *env) (passFunc, error) {
	var keys []serveKey
	pres := map[string][]*input{}
	for _, name := range serveCircuits {
		gen, err := generate(name)
		if err != nil {
			return nil, err
		}
		ins, err := makeInputs(name, gen, e.seed, servePresentations)
		if err != nil {
			return nil, err
		}
		pres[name] = ins
	}
	for _, c := range serveCosts {
		for _, name := range serveCircuits {
			keys = append(keys, serveKey{name, c})
		}
	}

	// Envelopes, one per (key, presentation).
	bodies := make([][][]byte, len(keys))
	for k, key := range keys {
		for _, in := range pres[key.circuit] {
			envelope := map[string]any{"bristol": string(in.data), "options": map[string]any{"cost": key.cost, "verify": true}}
			data, err := json.Marshal(envelope)
			if err != nil {
				return nil, err
			}
			bodies[k] = append(bodies[k], data)
		}
	}

	// The misses go first, in the fixed key order (every circuit under mc,
	// then under depth), so how warm the database is for each miss does not
	// depend on the seed. The repeats follow in serveRepeats rounds that
	// each hold every key once, in a seeded order; the seed also picks the
	// presentation of every request. Rounds keep the load pattern the same
	// for every seed, including for a key whose result is never cached.
	rng := rand.New(rand.NewSource(subSeed(e.seed, "order")))
	var firsts, repeats []serveRequest
	for k := range keys {
		firsts = append(firsts, serveRequest{key: k, pres: rng.Intn(servePresentations), first: true})
	}
	for i := 0; i < serveRepeats; i++ {
		for _, k := range rng.Perm(len(keys)) {
			repeats = append(repeats, serveRequest{key: k, pres: rng.Intn(servePresentations)})
		}
	}
	return func(ctx context.Context, tr *tracer, parent int) (*pass, error) {
		return servePass(ctx, e, tr, parent, keys, pres, bodies, slices.Clone(firsts), slices.Clone(repeats))
	}, nil
}

func servePass(ctx context.Context, e *env, tr *tracer, parent int, keys []serveKey, pres map[string][]*input,
	bodies [][][]byte, firsts, repeats []serveRequest) (*pass, error) {
	p := newPass()

	var setups []float64
	var srv *server
	for i := 0; i < serveLaunches; i++ {
		s, ready, err := launchServer(ctx, e, i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, ready.Seconds())
		if i < serveLaunches-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}
	defer srv.stop()

	start := time.Now()
	streamErr := drive(ctx, srv.addr, firsts, bodies, tr, parent, keys)
	if streamErr == nil {
		streamErr = drive(ctx, srv.addr, repeats, bodies, tr, parent, keys)
	}
	wall := time.Since(start)
	scrape, scrapeErr := srv.scrape()
	if err := srv.stop(); err != nil {
		return nil, err
	}
	hwmKB := srv.peakRSS()
	if streamErr != nil {
		return nil, streamErr
	}
	if scrapeErr != nil {
		return nil, scrapeErr
	}

	var all, hits, misses, firstLatencies, andR, depthR []float64
	coalesced, repeatMisses := 0, 0
	for _, r := range append(pointers(firsts), pointers(repeats)...) {
		p.attempted++
		key := keys[r.key]
		in := pres[key.circuit][r.pres]
		if r.err == nil && r.status != http.StatusOK {
			r.err = fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
		}
		var oc *circuit
		var resp struct {
			Bristol string `json:"bristol"`
		}
		if r.err == nil {
			if err := json.Unmarshal(r.body, &resp); err != nil {
				r.err = fmt.Errorf("response: %w", err)
			} else {
				oc, r.err = judge(in, []byte(resp.Bristol), e.seed)
			}
		}
		if r.err != nil {
			p.fail(fmt.Errorf("%s/%s: %w", key.circuit, key.cost, r.err))
			continue
		}
		ms := float64(r.latency) / float64(time.Millisecond)
		all = append(all, ms)
		switch r.cache {
		case "hit":
			hits = append(hits, ms)
		case "coalesced":
			coalesced++
			misses = append(misses, ms)
		default:
			misses = append(misses, ms)
			if !r.first {
				repeatMisses++
			}
		}
		if r.first {
			firstLatencies = append(firstLatencies, ms)
			andR = append(andR, float64(oc.ands())/float64(in.c.ands()))
			depthR = append(depthR, float64(oc.andDepth())/float64(in.c.andDepth()))
			// The circuit only: the report beside it carries timings.
			digest := sha256.Sum256([]byte(resp.Bristol))
			p.digests[key.circuit+"/"+key.cost] = hex.EncodeToString(digest[:])
			p.layerJobs = append(p.layerJobs, layerJob{name: key.circuit, data: in.data, cost: key.cost, workers: 1, verify: true, sharedDB: true})
		}
	}

	p.metrics = map[string]float64{
		"setup_s":             median(setups),
		"compile_s":           sum(misses) / 1000,
		"peak_rss_mb":         float64(hwmKB) / 1024,
		"and_ratio":           geomean(andR),
		"depth_ratio":         geomean(depthR),
		"throughput_rps":      float64(len(all)) / wall.Seconds(),
		"latency_p50_ms":      median(all),
		"latency_p99_ms":      quantile(all, 0.99),
		"miss_latency_p50_ms": median(misses),
	}
	p.extra["latency_samples"] = float64(len(all))
	p.extra["miss_samples"] = float64(len(misses))
	p.digests["and_ratio"] = fmt.Sprint(p.metrics["and_ratio"])
	p.digests["depth_ratio"] = fmt.Sprint(p.metrics["depth_ratio"])

	cacheHits, cacheMisses := scrape["mcserved_cache_hits_total"], scrape["mcserved_cache_misses_total"]
	p.layer = map[string]float64{
		"server.hit_ms_p50":          median(hits),
		"server.miss_ms_p50":         median(misses),
		"server.coalesced":           float64(coalesced),
		"server.repeat_misses":       float64(repeatMisses),
		"server.rejected":            scrape["mcserved_queue_rejections_total"],
		"server.queue_wait_s":        scrape["mcserved_queue_wait_seconds_sum"],
		"server.mcdb_class_hit_rate": scrape["mcdb_class_cache_hit_rate"],
		"rescache.hit_ratio":         ratio(cacheHits, cacheHits+cacheMisses),
		"rescache.evictions":         scrape["mcserved_cache_evictions_total"],
		// The traced replay repeats the first request of each key.
		"trace.untraced_compile_s": sum(firstLatencies) / 1000,
	}
	return p, nil
}

// drive sends reqs in order from serveClients closed-loop clients: each
// client sends its next request only after reading the previous response.
func drive(ctx context.Context, addr string, reqs []serveRequest, bodies [][][]byte, tr *tracer, parent int, keys []serveKey) error {
	client := &http.Client{Timeout: requestTimeout}
	defer client.CloseIdleConnections()
	var next atomic.Int64
	url := "http://" + addr + "/v1/optimize"
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(reqs)); i = next.Add(1) - 1 {
				r := &reqs[i]
				start := time.Now()
				r.status, r.cache, r.body, r.err = post(ctx, client, url, bodies[r.key][r.pres])
				r.latency = time.Since(start)
				k := keys[r.key]
				tr.add(parent, "request "+k.circuit+"/"+k.cost, start, start.Add(r.latency),
					map[string]any{"cache": r.cache, "status": r.status, "client": c})
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

func pointers(rs []serveRequest) []*serveRequest {
	out := make([]*serveRequest, len(rs))
	for i := range rs {
		out[i] = &rs[i]
	}
	return out
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-MC-Cache"), data, err
}

// server is one mcserved process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	exited  chan struct{}
	waitErr error
	once    sync.Once
	stopErr error
}

// launchServer starts mcserved with default flags on a free loopback port
// and returns once /readyz answers 200, with the time that took.
func launchServer(ctx context.Context, e *env, n int) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	log, err := os.Create(filepath.Join(e.work, fmt.Sprintf("mcserved-%d.log", n)))
	if err != nil {
		return nil, 0, err
	}
	defer log.Close()
	s := &server{addr: "127.0.0.1:" + strconv.Itoa(port), exited: make(chan struct{})}
	s.cmd = exec.Command(filepath.Join(e.bin, "mcserved"), "-addr", s.addr)
	s.cmd.Stdout, s.cmd.Stderr = log, log
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.NewTimer(readyTimeout)
	defer deadline.Stop()
	for {
		if resp, err := client.Get("http://" + s.addr + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("mcserved exited before ready: %v (log in %s)", s.waitErr, log.Name())
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-deadline.C:
			s.stop()
			return nil, 0, fmt.Errorf("mcserved not ready after %v", readyTimeout)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop drains the server with SIGTERM, kills it if the drain hangs, and
// waits for the process to exit. A drain that does not exit 0 is an error.
func (s *server) stop() error {
	s.once.Do(func() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(40 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
		}
		if s.waitErr != nil {
			s.stopErr = fmt.Errorf("mcserved shutdown: %v", s.waitErr)
		}
	})
	return s.stopErr
}

// scrape reads the unlabelled samples of /metrics, summing labelled ones
// under their bare name.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		name, _, _ := strings.Cut(f[0], "{")
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// peakRSS returns the stopped server's peak resident set in KiB (its
// VmHWM at exit).
func (s *server) peakRSS() int64 {
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss
	}
	return 0
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
