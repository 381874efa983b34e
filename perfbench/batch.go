package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"imapreduce/internal/algorithms/pagerank"
	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/graph"
	"imapreduce/internal/imr"
	"imapreduce/internal/mapreduce"
	"imapreduce/internal/trace"
	"imapreduce/internal/transport"
)

// Workload sizes. PageRank runs on the catalog's "google" graph at
// 1/20 of the paper's node count (45,820 nodes, ~300k edges): big
// enough that every iteration moves real data through the kv codec,
// the shuffle and sort/group, small enough that a run holds many jobs.
const (
	prDataset    = "google"
	prScale      = 20
	iters        = 10
	batchWorkers = 3
	setupReps    = 7
	jobTimeout   = 2 * time.Minute
	prTolerance  = 1e-9 // the pagerank package's own test tolerance
)

// batchWorkload is a closed loop of one iterative job at a time on the
// PageRank graph.
type batchWorkload struct {
	// minJobs is the measured job count every run reaches even on a
	// slow box; with iters it fixes the iteration-gap tail percentile.
	minJobs int
	// setup builds a fresh instance from the graph: DFS seeding and
	// cluster construction. setup_s times it.
	setup func(g *graph.Graph, tr *trace.Recorder) (batchEnv, error)
}

// jobTimes is what one job's run measured.
type jobTimes struct {
	wall time.Duration // submit call → result
	// gaps are between the job's committed iteration boundaries 1..iters.
	gaps []time.Duration
	// maxTask is the slowest task of each iteration, from the job's
	// result; nil for a chain.
	maxTask []time.Duration
}

// batchEnv is one set-up instance of a batch workload.
type batchEnv interface {
	// run submits one job and waits for its result.
	run(ctx context.Context) (jobTimes, error)
	// verify checks the last job's output against the sequential
	// reference, then removes it so every job starts from the same DFS.
	verify() error
	// layers describes the instance to the per-layer analysis.
	layers() *layerSource
	close()
}

var (
	prTCPWorkload   = batchWorkload{minJobs: 15, setup: newPRTCP}
	prChainWorkload = batchWorkload{minJobs: 12, setup: newPRChain}
)

// batchRun is one measured phase of a batch workload.
type batchRun struct {
	setupS    []float64
	wallMS    []float64
	gapMS     []float64
	maxTask   []time.Duration // of the measured jobs
	attempted int
	failed    int
	heapMB    float64
	layers    []metric
}

func runBatch(w batchWorkload, cfg runConfig) (*outcome, error) {
	out := &outcome{}
	phase := cfg.measure
	if cfg.trace {
		phase /= 2
	}
	plain, err := measureBatch(w, cfg.seed, phase, nil)
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = plain.attempted, plain.failed
	q := tailQuantile(w.minJobs * (iters - 1))
	if !cfg.trace {
		out.add("setup_s", median(plain.setupS), "s")
		out.add("lat_p50_ms", median(plain.gapMS), "ms")
		out.add("lat_tail_ms", quantile(plain.gapMS, q), "ms")
		out.add("goodput_per_s", float64(len(plain.wallMS))/(sum(plain.wallMS)/1000), "1/s")
		out.add("peak_heap_mb", plain.heapMB, "MiB")
		out.note("jobs=%d job_s p50=%.4f; lat = gap between committed iterations, tail = p%g of %d gaps",
			len(plain.wallMS), median(plain.wallMS)/1000, q*100, len(plain.gapMS))
		return out, nil
	}
	tr := trace.NewRecorder(traceCapacity)
	traced, err := measureBatch(w, cfg.seed, phase, tr)
	if err != nil {
		return nil, err
	}
	out.attempted += traced.attempted
	out.failed += traced.failed
	out.metrics = traced.layers
	out.add("trace.overhead_frac", median(traced.wallMS)/median(plain.wallMS)-1, "ratio")
	out.add("trace.dropped", float64(tr.Dropped()), "count")
	out.add("fail_frac", float64(out.failed)/float64(out.attempted), "ratio")
	out.note("untraced jobs=%d job_s p50=%.4f; traced jobs=%d job_s p50=%.4f",
		len(plain.wallMS), median(plain.wallMS)/1000, len(traced.wallMS), median(traced.wallMS)/1000)
	return out, nil
}

// measureBatch sets the workload up setupReps times (keeping the last
// instance), runs one unmeasured warm-up job, then runs jobs back to
// back for phase (and at least minJobs), verifying every output.
func measureBatch(w batchWorkload, seed int64, phase time.Duration, tr *trace.Recorder) (*batchRun, error) {
	r := &batchRun{}
	// The graph is generated untimed: the benchmark makes the inputs and
	// the program receives them. Its time follows the seed's largest hub
	// (4x across seeds), which would swamp set-up.
	g, err := prGraph(seed)
	if err != nil {
		return nil, err
	}
	var env batchEnv
	for i := 0; i < setupReps; i++ {
		if env != nil {
			env.close()
		}
		runtime.GC() // each set-up starts from a collected heap
		start := time.Now()
		e, err := w.setup(g, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		env = e
	}
	defer env.close()

	job := func() (jobTimes, error) {
		r.attempted++
		ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
		defer cancel()
		t, err := env.run(ctx)
		if err == nil {
			err = env.verify()
		}
		if err != nil {
			r.failed++
		}
		return t, err
	}
	// The first job on a fresh cluster pays connection warm-up and lazy
	// initialization later jobs do not; its output is checked but its
	// time is not measured.
	if _, err := job(); err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	var base map[string]int64
	if tr != nil {
		base = env.layers().counters()
	}
	runtime.GC()
	peakHeap := startHeapSampler()
	start := time.Now()
	measured := r.attempted
	for n := 0; n < w.minJobs || time.Since(start) < phase; n++ {
		t, err := job()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: job failed:", err)
			continue
		}
		r.wallMS = append(r.wallMS, ms(t.wall))
		for _, g := range t.gaps {
			r.gapMS = append(r.gapMS, ms(g))
		}
		r.maxTask = append(r.maxTask, t.maxTask...)
	}
	r.heapMB = peakHeap()
	if tr != nil {
		src := env.layers()
		src.maxTask = r.maxTask
		var err error
		if r.layers, err = batchLayers(src, base, tr, start, r.attempted-measured); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// iterClock records committed iteration boundaries through the
// engine's public OnIteration hook.
type iterClock struct {
	mu sync.Mutex
	at []time.Time
}

func (c *iterClock) hook(core.IterInfo) {
	c.mu.Lock()
	c.at = append(c.at, time.Now())
	c.mu.Unlock()
}

// take returns the gaps between the boundaries recorded since the last
// take; the first boundary is the end of iteration 1, so one-time job
// initialization is not part of any gap.
func (c *iterClock) take() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var gaps []time.Duration
	for i := 1; i < len(c.at); i++ {
		gaps = append(gaps, c.at[i].Sub(c.at[i-1]))
	}
	c.at = c.at[:0]
	return gaps
}

// prGraph generates the PageRank input graph for seed.
func prGraph(seed int64) (*graph.Graph, error) {
	d, err := graph.ByName(prDataset, prScale)
	if err != nil {
		return nil, err
	}
	d.Cfg.Seed = seed
	return d.Build(), nil
}

// checkRanks compares a PageRank output against the power-iteration
// reference.
func checkRanks(got map[int64]float64, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("output has %d ranks, want %d", len(got), len(want))
	}
	for i, w := range want {
		if d := math.Abs(got[int64(i)] - w); !(d <= prTolerance) {
			return fmt.Errorf("rank of node %d is %g, want %g", i, got[int64(i)], w)
		}
	}
	return nil
}

func deleteTree(fs *dfs.DFS, dir string) {
	for _, p := range fs.List(dir + "/") {
		fs.Delete(p)
	}
}

// pagerank-tcp: iMapReduce PageRank on an in-process cluster whose
// tasks talk over loopback TCP.
type prTCPEnv struct {
	g     *graph.Graph
	want  []float64
	net   *transport.TCPNetwork
	c     *imr.Cluster
	clock iterClock
}

const (
	prStatic = "/pr/static"
	prState  = "/pr/state"
	prOut    = "/pr/out"
)

func newPRTCP(g *graph.Graph, tr *trace.Recorder) (batchEnv, error) {
	// The network is the one imr.Options{TCP: true} builds (compression
	// off, the program's default); it is passed in so its counters can
	// be read.
	e := &prTCPEnv{g: g, net: transport.NewTCPNetwork()}
	e.net.SetTrace(tr)
	c, err := imr.NewCluster(imr.Options{
		Workers: batchWorkers, Network: e.net, Trace: tr, OnIteration: e.clock.hook,
		Core: &core.Options{Timeout: jobTimeout},
	})
	if err == nil {
		e.c = c
		err = pagerank.WriteInputs(c.FS, c.Spec.IDs()[0], g, prStatic, prState)
	}
	if err != nil {
		e.net.Close()
		return nil, err
	}
	return e, nil
}

func (e *prTCPEnv) run(ctx context.Context) (jobTimes, error) {
	job := pagerank.IMRJob(pagerank.IMRConfig{
		Name: "pr", Nodes: e.g.N, StaticPath: prStatic, StatePath: prState,
		OutputPath: prOut, MaxIter: iters,
	})
	e.clock.take()
	start := time.Now()
	h, err := e.c.Submit(ctx, imr.JobSpec{Iterative: job}, imr.SubmitOptions{})
	var res *imr.JobResult
	if err == nil {
		res, err = h.Result()
	}
	t := jobTimes{wall: time.Since(start), gaps: e.clock.take()}
	if err != nil {
		return t, err
	}
	for _, it := range res.Iterative.PerIter {
		t.maxTask = append(t.maxTask, it.MaxTaskElapsed)
	}
	return t, nil
}

func (e *prTCPEnv) verify() error {
	if e.want == nil {
		e.want = pagerank.Reference(e.g, iters)
	}
	got, err := imr.ReadAllAs[int64, float64](e.c, prOut)
	if err == nil {
		err = checkRanks(got, e.want)
	}
	deleteTree(e.c.FS, prOut)
	return err
}

func (e *prTCPEnv) layers() *layerSource {
	return &layerSource{m: e.c.Metrics, fs: e.c.FS, at: e.c.Spec.IDs()[0], net: e.net, tcp: e.net, shuffleNet: true,
		sample: prState, sampleOps: pagerank.StateOps()}
}

func (e *prTCPEnv) close() { e.net.Close() }

// pagerank-mrchain: the same computation as the Hadoop-style baseline,
// one MapReduce job per iteration over combined rank+adjacency records.
type prChainEnv struct {
	g    *graph.Graph
	want []float64
	c    *imr.Cluster
	out  string
}

const (
	mrInput = "/mr/in"
	mrWork  = "/mr/work"
)

func newPRChain(g *graph.Graph, tr *trace.Recorder) (batchEnv, error) {
	c, err := imr.NewCluster(imr.Options{Workers: batchWorkers, Trace: tr})
	if err != nil {
		return nil, err
	}
	if err := c.Write(mrInput, pagerank.CombinedPairs(g), pagerank.CombinedOps()); err != nil {
		return nil, err
	}
	return &prChainEnv{g: g, c: c}, nil
}

func (e *prChainEnv) run(ctx context.Context) (jobTimes, error) {
	spec := pagerank.MRSpec("prmr", mrInput, mrWork, e.g.N, batchWorkers, iters, 0)
	start := time.Now()
	h, err := e.c.Submit(ctx, imr.JobSpec{Chain: &spec}, imr.SubmitOptions{})
	var res *imr.JobResult
	if err == nil {
		res, err = h.Result()
	}
	t := jobTimes{wall: time.Since(start)}
	if err != nil {
		return t, err
	}
	// The chain has no iteration hook; its per-iteration cumulative
	// walls mark the same boundaries.
	st := res.Chain.Stats
	for i := 1; i < len(st); i++ {
		t.gaps = append(t.gaps, st[i].CumulativeWall-st[i-1].CumulativeWall)
	}
	e.out = res.Chain.OutputPath
	return t, nil
}

func (e *prChainEnv) verify() error {
	if e.want == nil {
		e.want = pagerank.Reference(e.g, iters)
	}
	recs, err := imr.ReadAllAs[int64, mapreduce.IterValue](e.c, e.out)
	if err == nil {
		got := make(map[int64]float64, len(recs))
		for k, v := range recs {
			got[k], _ = v.State.(float64)
		}
		err = checkRanks(got, e.want)
	}
	deleteTree(e.c.FS, mrWork)
	return err
}

func (e *prChainEnv) layers() *layerSource {
	return &layerSource{m: e.c.Metrics, fs: e.c.FS, at: e.c.Spec.IDs()[0],
		sample: mrInput, sampleOps: pagerank.CombinedOps()}
}

func (e *prChainEnv) close() {}
