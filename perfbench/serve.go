package main

import (
	"context"
	"fmt"
	"path"
	"runtime"
	"sync"
	"time"

	"imapreduce/internal/algorithms/pagerank"
	"imapreduce/internal/graph"
	"imapreduce/internal/imr"
	"imapreduce/internal/jobs"
	"imapreduce/internal/serve"
	"imapreduce/internal/trace"
	"imapreduce/internal/transport"
)

// The serve workload drives a 4-slot serve.Service on a 4-worker
// in-process cluster with a closed loop of serveClients callers, half
// of them per tenant: each submits a job, waits for it, and submits the
// next, so twice as many jobs as slots are always in the service and
// the fair-share scheduler always has a queue to order. Three of every
// four jobs are a tiny iMapReduce PageRank; every fourth is the
// baseline chain of the same computation, so both engine pools of
// imr.Cluster carry load. Per-job fixed costs (admission, scheduling,
// engine construction, namespacing, metric folding) and the DFS file
// count every job adds to dominate; the data plane does little.
const (
	serveClients = 8
	serveWorkers = 4
	serveSlots   = 4
	serveNodes   = 64
	serveIters   = 3
	chainEvery   = 4
	serveInput   = "lgin"
	serveChainIn = "/serve/mrin"
	// serveMinJobs is the job count every measured phase reaches even on
	// a slow box (a 15-s phase holds ~2500 on the 2-vCPU VM the
	// benchmark was written on); it fixes the tail percentile at p99.
	serveMinJobs = 2000
	// serveLimit is the latency limit goodput counts against: about 1.5x
	// the p99 latency (~165 ms; p50 ~41 ms) of a 30-s run on the commit
	// that added the benchmark, so a per-job slowdown of 1.5x moves
	// goodput through the tail as well as through throughput.
	serveLimit = 250 * time.Millisecond
	// A set-up takes well under a millisecond, so it is repeated more
	// often than a batch set-up to give a steady median.
	serveSetupReps = 101
	// Trace rings: a served job emits ~140 events, the service ~3 per job.
	serveJobEvents     = 512
	serveTraceCapacity = 1 << 16
)

var serveTenants = []string{"alpha", "beta"}

// serveEnv is one freshly built cluster + service.
type serveEnv struct {
	seed int64
	net  *transport.ChanNetwork
	c    *imr.Cluster
	svc  *serve.Service
	// want maps each job kind ("iter", "chain") to the checksums of the
	// part files its solo run wrote, keyed by part-file name.
	want map[string]map[string]uint32
}

func newServeEnv(seed int64, tr *trace.Recorder) (*serveEnv, error) {
	e := &serveEnv{seed: seed, net: transport.NewChanNetwork()}
	c, err := imr.NewCluster(imr.Options{Workers: serveWorkers, Network: e.net})
	if err != nil {
		return nil, err
	}
	e.c = c
	if err := jobs.Seed(c.FS, c.Spec.IDs()[0], "pagerank", e.params()); err != nil {
		return nil, err
	}
	g := graph.Generate(graph.GenConfig{Nodes: serveNodes, Degree: graph.PageRankDegree, Seed: seed})
	if err := c.Write(serveChainIn, pagerank.CombinedPairs(g), pagerank.CombinedOps()); err != nil {
		return nil, err
	}
	e.svc, err = serve.New(serve.Config{Cluster: c, Slots: serveSlots, QueueLimit: 1 << 16, Trace: tr})
	return e, err
}

func (e *serveEnv) params() map[string]string {
	return map[string]string{
		"name": serveInput, "nodes": fmt.Sprint(serveNodes), "seed": fmt.Sprint(e.seed),
		"maxiter": fmt.Sprint(serveIters), "ckpt": "0",
	}
}

func (e *serveEnv) close() {
	e.svc.Close()
	e.net.Close()
}

// spec builds job i's spec with a collision-free name and output.
// It returns the job kind and the DFS directory an iterative job's
// output lands in (a chain's is known only from its result).
func (e *serveEnv) spec(tenant string, i int) (imr.JobSpec, string, string, error) {
	dir := fmt.Sprintf("%s/j%d", serve.TenantRoot(tenant), i)
	if i%chainEvery == chainEvery-1 {
		spec := pagerank.MRSpec(fmt.Sprintf("mr%d", i), serveChainIn, dir, serveNodes, serveWorkers, serveIters, 0)
		return imr.JobSpec{Chain: &spec}, "chain", "", nil
	}
	job, err := jobs.Build("pagerank", e.params())
	if err != nil {
		return imr.JobSpec{}, "", "", err
	}
	job.Name = fmt.Sprintf("pr%d", i)
	job.OutputPath = dir + "/out"
	return imr.JobSpec{Iterative: job}, "iter", job.OutputPath, nil
}

// outputSums returns the checksum of every part file of a finished
// job's output, keyed by part-file name.
func (e *serveEnv) outputSums(res *imr.JobResult, iterOut string) (map[string]uint32, error) {
	dir := iterOut
	if res != nil && res.Chain != nil {
		dir = res.Chain.OutputPath
	}
	parts := e.c.FS.List(dir + "/")
	if len(parts) == 0 {
		return nil, fmt.Errorf("no output under %s", dir)
	}
	sums := make(map[string]uint32, len(parts))
	for _, p := range parts {
		s, err := e.c.FS.Checksum(p)
		if err != nil {
			return nil, err
		}
		sums[path.Base(p)] = s
	}
	return sums, nil
}

// solo runs one job of each kind alone, straight on the cluster, and
// records its output checksums: every served job must match them.
func (e *serveEnv) solo() error {
	e.want = map[string]map[string]uint32{}
	for _, i := range []int{0, chainEvery - 1} {
		spec, kind, out, err := e.spec("solo", i)
		if err != nil {
			return err
		}
		h, err := e.c.Submit(context.Background(), spec, imr.SubmitOptions{})
		if err != nil {
			return err
		}
		res, err := h.Result()
		if err != nil {
			return fmt.Errorf("solo %s job: %w", kind, err)
		}
		if e.want[kind], err = e.outputSums(res, out); err != nil {
			return err
		}
	}
	return nil
}

// check compares a served job's output with its kind's solo run, part
// file by part file. It reads the parts by name rather than listing the
// output directory: dfs.List scans every path, and a run leaves tens of
// thousands.
func (e *serveEnv) check(j *servedJob) error {
	dir := j.out
	if j.res.Chain != nil {
		dir = j.res.Chain.OutputPath
	}
	for p, want := range e.want[j.kind] {
		got, err := e.c.FS.Checksum(dir + "/" + p)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("%s job part %s checksum %08x, solo run %08x", j.kind, p, got, want)
		}
	}
	return nil
}

// servedJob is one submission and what became of it.
type servedJob struct {
	submit time.Time
	admit  time.Duration // duration of the Submit call
	lat    time.Duration // Submit call → job finished
	kind   string
	out    string
	res    *imr.JobResult
	err    error
	trace  *trace.Recorder
}

// serveRun is one measured closed-loop phase.
type serveRun struct {
	setupS []float64
	jobs   []*servedJob
	span   time.Duration // start of the phase → last completion
	queue  []int         // queued-job samples over the phase
	heapMB float64
	failed int
	layers []metric
}

func (r *serveRun) latMS() []float64 {
	var out []float64
	for _, j := range r.jobs {
		if j.err == nil {
			out = append(out, ms(j.lat))
		}
	}
	return out
}

func runServe(cfg runConfig) (*outcome, error) {
	out := &outcome{}
	phase := cfg.measure
	if cfg.trace {
		phase /= 2
	}
	plain, err := measureServe(cfg, phase, nil)
	if err != nil {
		return nil, err
	}
	n := len(plain.jobs)
	out.attempted, out.failed = n, plain.failed
	lats := plain.latMS()
	if !cfg.trace {
		good := 0
		for _, j := range plain.jobs {
			if j.err == nil && j.lat <= serveLimit {
				good++
			}
		}
		q := tailQuantile(serveMinJobs)
		out.add("setup_s", median(plain.setupS), "s")
		out.add("lat_p50_ms", median(lats), "ms")
		out.add("lat_tail_ms", quantile(lats, q), "ms")
		out.add("goodput_per_s", float64(good)/plain.span.Seconds(), "1/s")
		out.add("peak_heap_mb", plain.heapMB, "MiB")
		out.note("clients=%d jobs=%d limit=%s; lat = Submit call to job finished, tail = p%g",
			serveClients, n, serveLimit, q*100)
		return out, nil
	}
	tr := trace.NewRecorder(serveTraceCapacity)
	traced, err := measureServe(cfg, phase, tr)
	if err != nil {
		return nil, err
	}
	dropped := tr.Dropped()
	for _, j := range traced.jobs {
		dropped += j.trace.Dropped()
	}
	out.attempted += len(traced.jobs)
	out.failed += traced.failed
	out.metrics = traced.layers
	out.add("trace.overhead_frac", median(traced.latMS())/median(lats)-1, "ratio")
	out.add("trace.dropped", float64(dropped), "count")
	out.add("fail_frac", float64(out.failed)/float64(out.attempted), "ratio")
	return out, nil
}

// serveWarmup is how long the process is warmed up, by the same closed
// loop on a throwaway cluster, before anything is timed: a long-lived
// service does not pay its process's warm-up per job.
const serveWarmup = time.Second

// measureServe warms the process up, builds the cluster and service
// serveSetupReps times (keeping the last), records the solo checksums,
// then runs the closed loop for phase and checks every output
// afterwards. With tr set, the service and every job record traces.
func measureServe(cfg runConfig, phase time.Duration, tr *trace.Recorder) (*serveRun, error) {
	warm, err := newServeEnv(cfg.seed, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	w, err := warm.drive(serveWarmup, 0, nil)
	warm.close()
	if err == nil && w.failed > 0 {
		err = fmt.Errorf("%d of %d warm-up jobs failed", w.failed, len(w.jobs))
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var env *serveEnv
	var setupS []float64
	for i := 0; i < serveSetupReps; i++ {
		if env != nil {
			env.close()
		}
		runtime.GC() // each set-up starts from a collected heap
		start := time.Now()
		e, err := newServeEnv(cfg.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		env = e
	}
	defer env.close()
	var base map[string]int64
	if tr != nil {
		base = env.layerSource(nil).counters()
	}
	r, err := env.drive(phase, serveMinJobs, tr)
	if err != nil {
		return nil, err
	}
	r.setupS = setupS
	if tr != nil {
		if r.layers, err = serveLayers(env, base, r, tr); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// drive records the solo checksums, then runs serveClients callers
// until phase has passed and minJobs jobs have been submitted: each
// caller submits a job for its tenant, waits for it, and submits the
// next. It checks every output afterwards. With tr set, every job gets
// its own trace ring.
func (e *serveEnv) drive(phase time.Duration, minJobs int, tr *trace.Recorder) (*serveRun, error) {
	if err := e.solo(); err != nil {
		return nil, err
	}
	r := &serveRun{}
	runtime.GC()
	peakHeap := startHeapSampler()
	stopQueue := poll(10*time.Millisecond, func() { r.queue = append(r.queue, e.svc.Stats().Queued) })
	var mu sync.Mutex // guards r.jobs
	// next registers a new job and returns its index, or -1 once the
	// phase is over.
	next := func(start time.Time) (int, *servedJob) {
		mu.Lock()
		defer mu.Unlock()
		if time.Since(start) >= phase && len(r.jobs) >= minJobs {
			return -1, nil
		}
		j := &servedJob{}
		r.jobs = append(r.jobs, j)
		return len(r.jobs) - 1, j
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		tenant := serveTenants[c%len(serveTenants)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, j := next(start); j != nil; i, j = next(start) {
				e.run(tenant, i, j, tr)
			}
		}()
	}
	wg.Wait()
	stopQueue()
	r.heapMB = peakHeap()
	for _, j := range r.jobs {
		r.span = max(r.span, j.submit.Add(j.lat).Sub(start))
	}
	for _, j := range r.jobs {
		if j.err == nil {
			j.err = e.check(j)
		}
		if j.err != nil {
			r.failed++
		}
	}
	return r, nil
}

// run submits job i for tenant and waits for it, recording into j.
func (e *serveEnv) run(tenant string, i int, j *servedJob, tr *trace.Recorder) {
	spec, kind, out, err := e.spec(tenant, i)
	if err != nil {
		j.err = err
		return
	}
	j.kind, j.out = kind, out
	opts := imr.SubmitOptions{Tenant: tenant}
	if tr != nil {
		j.trace = trace.NewRecorder(serveJobEvents)
		opts.Trace = j.trace
	}
	j.submit = time.Now()
	h, err := e.svc.Submit(context.Background(), spec, opts)
	j.admit = time.Since(j.submit)
	if err != nil {
		j.err = err
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	if j.err = h.Wait(ctx); j.err != nil {
		h.Cancel()
		return
	}
	j.lat = time.Since(j.submit)
	j.res, j.err = h.Result()
}

func (e *serveEnv) layerSource(maxTask []time.Duration) *layerSource {
	return &layerSource{m: e.c.Metrics, fs: e.c.FS, at: e.c.Spec.IDs()[0], net: e.net, shuffleNet: true,
		sample: "/jobs/" + serveInput + "/state", sampleOps: pagerank.StateOps(), maxTask: maxTask}
}

// serveLayers computes the per-layer metrics of a traced serve phase:
// counters over the phase, each job's own engine trace, the service's
// lifecycle events, and what the callers and the queue sampler saw.
func serveLayers(env *serveEnv, base map[string]int64, r *serveRun, tr *trace.Recorder) ([]metric, error) {
	var maxTask []time.Duration
	var a coreAgg
	var mr mrAgg
	var admit, lats []float64
	for _, j := range r.jobs {
		addTrace(&a, &mr, j.trace.Events(), 0)
		admit = append(admit, float64(j.admit)/1e3)
		if j.err == nil {
			lats = append(lats, ms(j.lat))
		}
		if j.res != nil && j.res.Iterative != nil {
			for _, it := range j.res.Iterative.PerIter {
				maxTask = append(maxTask, it.MaxTaskElapsed)
			}
		}
	}
	src := env.layerSource(maxTask)
	v := layerValues{}
	counterLayers(v, src, base, len(r.jobs))
	a.fill(v)
	fillMapReduce(v, &mr, &a, src, base, len(r.jobs))

	// Queue wait and run time per job from the service's own events.
	at := map[trace.Kind]map[string]time.Duration{}
	for _, ev := range tr.Events() {
		for _, attr := range ev.Attrs {
			if attr.Key == "job" {
				if at[ev.Kind] == nil {
					at[ev.Kind] = map[string]time.Duration{}
				}
				at[ev.Kind][attr.Value] = ev.Time
			}
		}
	}
	var wait, run []float64
	for job, d := range at[trace.KindServeDispatch] {
		if s, ok := at[trace.KindServeSubmit][job]; ok {
			wait = append(wait, ms(d-s))
		}
		if f, ok := at[trace.KindServeDone][job]; ok {
			run = append(run, ms(f-d))
		}
	}
	v["serve.admit_us"] = median(admit)
	v["serve.queue_wait_ms"] = median(wait)
	v["serve.run_ms"] = median(run)
	// Drift compares the p50 latency of the last tenth of the jobs with
	// the first: the DFS file count grows with every job.
	k := min(max(len(lats)/10, 1), len(lats))
	v["serve.lat_drift"] = ratio(median(lats[len(lats)-k:]), median(lats[:k]))
	for _, q := range r.queue {
		v["serve.queue_len_max"] = max(v["serve.queue_len_max"], float64(q))
	}
	if err := probeLayers(v, src); err != nil {
		return nil, err
	}
	return v.metrics(), nil
}
