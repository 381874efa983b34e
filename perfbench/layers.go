package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
	"imapreduce/internal/trace"
	"imapreduce/internal/transport"
)

// traceCapacity sizes a batch workload's trace ring so that a traced
// phase never overflows it (trace.dropped reports it if one does): a
// pagerank-tcp job emits ~10k events, most of them TCP flushes.
const traceCapacity = 1 << 18

// layerCatalogue is every per-layer metric, in report order. Every
// workload reports all of them; a layer a workload does not exercise
// reads 0 (a count of zero work), as documented in README.md.
var layerCatalogue = []struct{ name, unit string }{
	{"kv.encode_ns_per_pair", "ns"},
	{"kv.decode_ns_per_pair", "ns"},
	{"kv.decode_allocs_per_chunk", "count"},
	{"kv.sort_ns_per_pair", "ns"},
	{"kv.group_ns_per_pair", "ns"},
	{"transport.msgs", "count/job"},
	{"transport.mb", "MB/job"},
	{"transport.flushes", "count/job"},
	{"transport.compress_saved_ratio", "ratio"},
	{"transport.dials", "count/job"},
	{"transport.send_retries", "count/job"},
	{"transport.rtt_us", "us"},
	{"transport.frame_mb_per_s", "MB/s"},
	{"transport.frame_mb_per_s_compressed", "MB/s"},
	{"dfs.read_mb", "MB/job"},
	{"dfs.write_mb", "MB/job"},
	{"dfs.read_remote_ratio", "ratio"},
	{"dfs.files_end", "count"},
	{"dfs.write_ms_per_mb", "ms/MB"},
	{"dfs.read_ms_per_mb", "ms/MB"},
	{"dfs.remote_read_ms_per_mb", "ms/MB"},
	{"dfs.list_us", "us"},
	{"core.init_ms", "ms"},
	{"core.shuffle_ms", "ms"},
	{"core.syncwait_ms", "ms"},
	{"core.compute_ms", "ms"},
	{"core.trace_coverage", "ratio"},
	{"core.map_ms", "ms"},
	{"core.sortgroup_ms", "ms"},
	{"core.reduce_ms", "ms"},
	{"core.statesend_ms", "ms"},
	{"core.wait_ms", "ms"},
	{"core.barrier_ms", "ms"},
	{"core.load_ms", "ms"},
	{"core.final_ms", "ms"},
	{"core.shuffle_mb", "MB/job"},
	{"core.shuffle_remote_ratio", "ratio"},
	{"core.state_mb", "MB/job"},
	{"core.checkpoints", "count/job"},
	{"core.manifests", "count/job"},
	{"core.max_task_ms", "ms"},
	{"mapreduce.jobs", "count/job"},
	{"mapreduce.tasks", "count/job"},
	{"mapreduce.retries", "count/job"},
	{"mapreduce.speculative", "count/job"},
	{"mapreduce.init_ms", "ms"},
	{"mapreduce.map_ms", "ms"},
	{"mapreduce.shuffle_ms", "ms"},
	{"mapreduce.reduce_ms", "ms"},
	{"mapreduce.emulated_overhead_ms", "ms/job"},
	{"serve.admit_us", "us"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.queue_len_max", "count"},
	{"serve.lat_drift", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.dropped", "count"},
	{"fail_frac", "ratio"},
}

// The Hadoop scheduling sleeps of the Quick experiment config. Every
// workload runs with them off; mapreduce.emulated_overhead_ms reports
// what they would have added, apart from any measured time.
const (
	quickJobInit   = 4 * time.Millisecond
	quickTaskStart = time.Millisecond
)

// layerSource is what the per-layer analysis reads from one workload
// instance.
type layerSource struct {
	m   *metrics.Set
	fs  *dfs.DFS
	at  string // datanode the probes read and write at
	net transport.Network
	tcp *transport.TCPNetwork
	// shuffleNet says the task-to-task shuffle runs over net, so its
	// message sizes are the workload's shuffle chunk sizes.
	shuffleNet bool
	// sample is a DFS input of the workload; the kv and dfs probes run
	// on its records.
	sample    string
	sampleOps kv.Ops
	maxTask   []time.Duration
}

// counters snapshots every counter the layer metrics difference over
// the measured phase. Serve folds each job's counters into the service
// set under tenant.<t>.<name>; those are summed into <name>.
func (s *layerSource) counters() map[string]int64 {
	out := map[string]int64{}
	for name, v := range s.m.Snapshot() {
		if strings.HasPrefix(name, "tenant.") {
			if parts := strings.SplitN(name, ".", 3); len(parts) == 3 {
				name = parts[2]
			}
		}
		out[name] += v
	}
	if s.net != nil {
		out["net.msgs"] = s.net.Messages()
		out["net.bytes"] = s.net.BytesSent()
	}
	if s.tcp != nil {
		out["tcp.flushes"] = s.tcp.Flushes()
		out["tcp.dials"] = s.tcp.Dials()
	}
	return out
}

// layerValues collects per-layer values by catalogue name.
type layerValues map[string]float64

func (v layerValues) metrics() []metric {
	out := make([]metric, 0, len(layerCatalogue))
	for _, c := range layerCatalogue {
		if strings.HasPrefix(c.name, "trace.") || c.name == "fail_frac" {
			continue // added by the caller, which owns both phases
		}
		out = append(out, metric{c.name, v[c.name], c.unit})
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mib = 1 << 20

// counterLayers fills the count-based metrics of the transport, dfs,
// core and mapreduce layers from counter deltas over jobs jobs.
func counterLayers(v layerValues, src *layerSource, base map[string]int64, jobs int) {
	now := src.counters()
	d := func(name string) float64 { return float64(now[name] - base[name]) }
	per := func(name string) float64 { return d(name) / float64(jobs) }
	v["transport.msgs"] = per("net.msgs")
	v["transport.mb"] = per("net.bytes") / mib
	v["transport.flushes"] = per("tcp.flushes")
	v["transport.dials"] = per("tcp.dials")
	v["transport.send_retries"] = per(metrics.SendRetries)
	v["dfs.read_mb"] = per(metrics.DFSReadBytes) / mib
	v["dfs.write_mb"] = per(metrics.DFSWriteBytes) / mib
	v["dfs.read_remote_ratio"] = ratio(d(metrics.DFSReadRemote), d(metrics.DFSReadBytes))
	v["core.shuffle_mb"] = per(metrics.ShuffleBytes) / mib
	v["core.shuffle_remote_ratio"] = ratio(d(metrics.ShuffleRemote), d(metrics.ShuffleBytes))
	v["core.state_mb"] = per(metrics.StateBytes) / mib
	v["core.checkpoints"] = per(metrics.Checkpoints)
	v["core.manifests"] = per(metrics.ManifestCommits)
	v["mapreduce.retries"] = per(metrics.TaskRetries)
	v["mapreduce.speculative"] = per(metrics.SpeculativeTasks)
	var maxTask []float64
	for _, t := range src.maxTask {
		maxTask = append(maxTask, ms(t))
	}
	v["core.max_task_ms"] = median(maxTask)
}

// coreAgg accumulates the core engine's trace over many runs: the
// paper's Fig. 10 factors per iteration, and per-kind span self time
// per task pair per iteration.
type coreAgg struct {
	launches  int // task.launch events (one per map/reduce pair)
	iters     int
	pairIters int
	wall      time.Duration
	factors   trace.IterFactors
	self      map[trace.Kind]time.Duration
}

// mrAgg accumulates the baseline engine's job-phase spans.
type mrAgg struct {
	jobs  int
	spans map[trace.Kind]time.Duration
}

// addTrace splits an event stream into core runs (run.start → run.finish)
// and folds each into a; baseline job-phase spans go to mr. Only
// events at or after from count.
func addTrace(a *coreAgg, mr *mrAgg, events []trace.Event, from time.Duration) {
	if a.self == nil {
		a.self = map[trace.Kind]time.Duration{}
	}
	if mr.spans == nil {
		mr.spans = map[trace.Kind]time.Duration{}
	}
	var run []trace.Event
	inRun := false
	for _, ev := range events {
		if ev.Time < from {
			continue
		}
		switch ev.Kind {
		case trace.KindTaskLaunch:
			a.launches++
		case trace.KindRunStart:
			run, inRun = run[:0], true
		case trace.KindRunFinish:
			if inRun {
				a.addRun(append(run, ev))
			}
			inRun = false
		}
		if inRun {
			run = append(run, ev)
		}
	}
	for _, s := range trace.Spans(events) {
		if s.Start < from {
			continue
		}
		switch s.Kind {
		case trace.SpanJobInit:
			mr.jobs++
			fallthrough
		case trace.SpanMapWave, trace.SpanShuffleWave, trace.SpanReduceWave:
			mr.spans[s.Kind] += s.Dur
		}
	}
}

func (a *coreAgg) addRun(events []trace.Event) {
	d := trace.Decompose(events)
	t := d.Totals()
	a.iters += len(d.PerIter)
	a.pairIters += d.Pairs * len(d.PerIter)
	a.wall += d.Wall
	a.factors.Init += t.Init
	a.factors.Shuffle += t.Shuffle
	a.factors.SyncWait += t.SyncWait
	a.factors.Compute += t.Compute
	for k, dur := range selfTimes(trace.Spans(events)) {
		a.self[k] += dur
	}
}

// selfTimes sums, per span kind, each span's duration minus the part
// of it covered by other spans of the same task nested inside it.
func selfTimes(spans []trace.Span) map[trace.Kind]time.Duration {
	type key struct {
		worker string
		task   int
	}
	groups := map[key][]trace.Span{}
	for _, s := range spans {
		k := key{s.Worker, s.Task}
		groups[k] = append(groups[k], s)
	}
	out := map[trace.Kind]time.Duration{}
	for _, g := range groups {
		sort.SliceStable(g, func(i, j int) bool { return g[i].Start < g[j].Start })
		for i, s := range g {
			end := s.Start + s.Dur
			covered, reach := time.Duration(0), s.Start
			for j := i + 1; j < len(g) && g[j].Start < end; j++ {
				c := g[j]
				if c.Start+c.Dur > end {
					continue // overlaps the end: a sibling, not a child
				}
				lo := max(c.Start, reach)
				if hi := c.Start + c.Dur; hi > lo {
					covered += hi - lo
					reach = hi
				}
			}
			out[s.Kind] += s.Dur - covered
		}
	}
	return out
}

func (a *coreAgg) fill(v layerValues) {
	perIter := func(d time.Duration) float64 { return ratio(ms(d), float64(a.iters)) }
	perPair := func(k trace.Kind) float64 { return ratio(ms(a.self[k]), float64(a.pairIters)) }
	v["core.init_ms"] = perIter(a.factors.Init)
	v["core.shuffle_ms"] = perIter(a.factors.Shuffle)
	v["core.syncwait_ms"] = perIter(a.factors.SyncWait)
	v["core.compute_ms"] = perIter(a.factors.Compute)
	v["core.trace_coverage"] = ratio(float64(a.factors.Covered()), float64(a.wall))
	v["core.map_ms"] = perPair(trace.SpanMap)
	v["core.sortgroup_ms"] = perPair(trace.SpanSortGroup)
	v["core.reduce_ms"] = perPair(trace.SpanReduce)
	v["core.statesend_ms"] = perPair(trace.SpanStateSend)
	v["core.wait_ms"] = perPair(trace.SpanWait)
	v["core.barrier_ms"] = perPair(trace.SpanBarrier)
	v["core.load_ms"] = perPair(trace.SpanLoad)
	v["core.final_ms"] = perPair(trace.SpanFinal)
}

// fillMapReduce reports the baseline engine's share of the job and task
// launch counters, which both engines bump: the core engine's runs and
// pair launches, counted from its trace, are taken out.
func fillMapReduce(v layerValues, mr *mrAgg, core *coreAgg, src *layerSource, base map[string]int64, jobs int) {
	if mr.jobs == 0 {
		return
	}
	now := src.counters()
	tasks := now[metrics.TasksLaunched] - base[metrics.TasksLaunched] - 2*int64(core.launches)
	v["mapreduce.jobs"] = float64(mr.jobs) / float64(jobs)
	v["mapreduce.tasks"] = float64(tasks) / float64(jobs)
	v["mapreduce.emulated_overhead_ms"] = ms(time.Duration(v["mapreduce.jobs"]*float64(quickJobInit) +
		v["mapreduce.tasks"]*float64(quickTaskStart)))
	per := func(k trace.Kind) float64 { return ratio(ms(mr.spans[k]), float64(mr.jobs)) }
	v["mapreduce.init_ms"] = per(trace.SpanJobInit)
	v["mapreduce.map_ms"] = per(trace.SpanMapWave)
	v["mapreduce.shuffle_ms"] = per(trace.SpanShuffleWave)
	v["mapreduce.reduce_ms"] = per(trace.SpanReduceWave)
}

// batchLayers computes the per-layer metrics of a traced batch phase
// that ran jobs jobs from phase start from on.
func batchLayers(src *layerSource, base map[string]int64, tr *trace.Recorder, from time.Time, jobs int) ([]metric, error) {
	v := layerValues{}
	counterLayers(v, src, base, jobs)
	var a coreAgg
	var mr mrAgg
	addTrace(&a, &mr, tr.Events(), from.Sub(tr.Start()))
	a.fill(v)
	fillMapReduce(v, &mr, &a, src, base, jobs)
	if err := probeLayers(v, src); err != nil {
		return nil, err
	}
	return v.metrics(), nil
}

// probeLayers runs the kv, transport and dfs probes on data shaped like
// the workload's own: the records of its DFS input, cut into chunks of
// the size its shuffle messages had.
func probeLayers(v layerValues, src *layerSource) error {
	v["dfs.files_end"] = float64(len(src.fs.List("/")))
	v["dfs.list_us"] = timeMedian(5, func() { src.fs.List("/") }) / 1e3
	pairs, err := src.fs.ReadFile(src.sample, src.at)
	if err != nil {
		return fmt.Errorf("probe input: %w", err)
	}
	if len(pairs) == 0 {
		return fmt.Errorf("probe input %s is empty", src.sample)
	}
	// Small inputs (the serve job's 64 nodes) are repeated so that each
	// probe times enough work to read. The full slice expression makes
	// append copy instead of writing past the DFS's own slice.
	for len(pairs) < 1<<14 {
		pairs = append(pairs[:len(pairs):len(pairs)], pairs...)
	}
	// Chunks are the size of the workload's shuffle messages where its
	// shuffle crosses the counted network, else the engine's default
	// send buffer.
	chunk := core.DefaultBufferThreshold
	if src.shuffleNet && v["transport.msgs"] > 0 {
		encoded, _ := kv.AppendPairs(nil, pairs)
		perPair := float64(len(encoded)) / float64(len(pairs))
		chunk = min(max(int(v["transport.mb"]*mib/v["transport.msgs"]/perPair), 16), 1<<14)
	}
	if err := kvProbe(v, pairs, src.sampleOps, chunk); err != nil {
		return err
	}
	if err := transportProbe(v, pairs, chunk); err != nil {
		return err
	}
	return dfsProbe(v, src, pairs)
}

// timeMedian runs fn reps times and returns the median duration in ns.
func timeMedian(reps int, fn func()) float64 {
	var ts []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		ts = append(ts, float64(time.Since(start)))
	}
	return median(ts)
}

// probeBudget is how long each timed probe loop runs at least.
const probeBudget = 50 * time.Millisecond

// repeat runs fn until probeBudget has passed and returns ns per call.
func repeat(fn func()) float64 {
	n := 0
	start := time.Now()
	for n < 3 || time.Since(start) < probeBudget {
		fn()
		n++
	}
	return float64(time.Since(start)) / float64(n)
}

func chunks(pairs []kv.Pair, size int) [][]kv.Pair {
	var out [][]kv.Pair
	for i := 0; i < len(pairs); i += size {
		out = append(out, pairs[i:min(i+size, len(pairs))])
	}
	return out
}

// kvProbe times kv's public codec, sort and group functions.
func kvProbe(v layerValues, pairs []kv.Pair, ops kv.Ops, chunk int) error {
	cs := chunks(pairs, chunk)
	n := float64(len(pairs))
	encoded := make([][]byte, len(cs))
	v["kv.encode_ns_per_pair"] = repeat(func() {
		for i, c := range cs {
			encoded[i], _ = kv.AppendPairs(encoded[i][:0], c)
		}
	}) / n
	var decodeErr error
	decodeAll := func() {
		for _, b := range encoded {
			s := kv.AcquireSlab()
			if _, _, err := kv.DecodePairsSlab(b, s); err != nil {
				decodeErr = err
			}
			s.Release()
		}
	}
	v["kv.decode_ns_per_pair"] = repeat(decodeAll) / n
	if decodeErr != nil {
		return fmt.Errorf("kv probe decode: %w", decodeErr)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decodeAll()
	runtime.ReadMemStats(&after)
	v["kv.decode_allocs_per_chunk"] = float64(after.Mallocs-before.Mallocs) / float64(len(cs))

	rng := rand.New(rand.NewSource(1))
	shuffled := append([]kv.Pair(nil), pairs...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	scratch := make([]kv.Pair, len(shuffled))
	v["kv.sort_ns_per_pair"] = repeat(func() {
		copy(scratch, shuffled)
		ops.SortPairs(scratch)
	}) / n
	v["kv.group_ns_per_pair"] = repeat(func() {
		copy(scratch, shuffled)
		kv.GroupPairs(scratch, ops)
	}) / n
	return nil
}

// probePayload carries pairs over the TCP binary frame path, encoded by
// kv's wire codec like the engine's own shuffle chunks.
type probePayload struct{ pairs []kv.Pair }

const probeTag = "perfbench.pairs"

func (p probePayload) WireTag() string { return probeTag }

func (p probePayload) AppendWire(buf []byte) ([]byte, bool) { return kv.AppendPairs(buf, p.pairs) }

func init() {
	transport.RegisterWireUnmarshaler(probeTag, func(data []byte) (any, error) {
		ps, _, err := kv.DecodePairs(data)
		return probePayload{ps}, err
	})
}

// transportProbe measures a loopback TCPNetwork endpoint pair: the
// round-trip time of an empty message, and the throughput of chunk
// frames with compression off and on.
func transportProbe(v layerValues, pairs []kv.Pair, chunk int) error {
	rtt, err := tcpRTT()
	if err != nil {
		return fmt.Errorf("rtt probe: %w", err)
	}
	v["transport.rtt_us"] = rtt / 1e3
	cs := chunks(pairs, chunk)
	mbps, _, err := tcpThroughput(cs, 0)
	if err != nil {
		return fmt.Errorf("throughput probe: %w", err)
	}
	v["transport.frame_mb_per_s"] = mbps
	mbps, saved, err := tcpThroughput(cs, compressThreshold)
	if err != nil {
		return fmt.Errorf("compressed throughput probe: %w", err)
	}
	v["transport.frame_mb_per_s_compressed"] = mbps
	v["transport.compress_saved_ratio"] = saved
	return nil
}

// compressThreshold is the frame size from which the compressed
// throughput probe flate-compresses frames. Every workload runs with
// compression off, the program's default.
const compressThreshold = 4 << 10

func endpointPair(opts transport.TCPOptions) (*transport.TCPNetwork, transport.Endpoint, transport.Endpoint, error) {
	net := transport.NewTCPNetworkOpts(opts)
	a, err := net.Endpoint("probe/a")
	if err != nil {
		net.Close()
		return nil, nil, nil, err
	}
	b, err := net.Endpoint("probe/b")
	if err != nil {
		net.Close()
		return nil, nil, nil, err
	}
	return net, a, b, nil
}

func tcpRTT() (float64, error) {
	net, a, b, err := endpointPair(transport.TCPOptions{})
	if err != nil {
		return 0, err
	}
	defer net.Close()
	go func() {
		for range b.Recv() {
			if b.Send("probe/a", transport.Message{Kind: "pong"}) != nil {
				return
			}
		}
	}()
	var rtts []float64
	for i := 0; i < 520; i++ {
		start := time.Now()
		if err := a.Send("probe/b", transport.Message{Kind: "ping"}); err != nil {
			return 0, err
		}
		<-a.Recv()
		if i >= 20 { // the first round trips dial and warm the connection
			rtts = append(rtts, float64(time.Since(start)))
		}
	}
	return median(rtts), nil
}

// tcpThroughput sends the chunks from a to b, repeated until ~16 MB of
// kv-encoded pairs have gone, and returns the encoded megabytes
// delivered per second and the share of wire bytes compression saved.
func tcpThroughput(cs [][]kv.Pair, threshold int) (float64, float64, error) {
	net, a, b, err := endpointPair(transport.TCPOptions{CompressThreshold: threshold})
	if err != nil {
		return 0, 0, err
	}
	defer net.Close()
	var bytes int64
	sizes := make([]int64, len(cs))
	for i, c := range cs {
		enc, _ := kv.AppendPairs(nil, c)
		sizes[i] = int64(len(enc))
		bytes += sizes[i]
	}
	rounds := max(1, int((16*mib)/max(bytes, 1)))
	total := rounds * len(cs)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			if _, ok := <-b.Recv(); !ok {
				return
			}
		}
	}()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i, c := range cs {
			if err := a.Send("probe/b", transport.Message{Kind: "chunk", Payload: probePayload{c}, Size: sizes[i]}); err != nil {
				return 0, 0, err
			}
		}
	}
	<-done
	mbps := float64(bytes*int64(rounds)) / mib / time.Since(start).Seconds()
	saved := float64(net.CompressionSaved())
	return mbps, ratio(saved, saved+float64(net.BytesSent())), nil
}

// dfsProbe times whole-file writes and reads of the workload's records,
// locally and through dfs.Client over loopback TCP.
func dfsProbe(v layerValues, src *layerSource, pairs []kv.Pair) error {
	var size int
	for _, p := range pairs {
		size += src.sampleOps.PairSize(p)
	}
	mb := float64(size) / mib
	const probeDir = "/perfbench-probe"
	defer deleteTree(src.fs, probeDir)
	// Each probe loop keeps its first error; a DFS call failing here is
	// a failed run, not a slow one.
	var probeErr error
	keep := func(err error) {
		if probeErr == nil {
			probeErr = err
		}
	}
	i := 0
	v["dfs.write_ms_per_mb"] = timeMedian(5, func() {
		i++
		keep(src.fs.WriteFile(fmt.Sprintf("%s/%d", probeDir, i), src.at, pairs, src.sampleOps))
	}) / 1e6 / mb
	file := probeDir + "/1"
	v["dfs.read_ms_per_mb"] = timeMedian(5, func() {
		_, err := src.fs.ReadFile(file, src.at)
		keep(err)
	}) / 1e6 / mb

	net, a, b, err := endpointPair(transport.TCPOptions{})
	if err != nil {
		return err
	}
	defer net.Close()
	svc := dfs.Serve(src.fs, a)
	defer svc.Wait()
	defer a.Close()
	client := dfs.NewClient(b, "probe/a", dfs.ClientOptions{})
	v["dfs.remote_read_ms_per_mb"] = timeMedian(5, func() {
		_, err := client.ReadFile(file, src.at)
		keep(err)
	}) / 1e6 / mb
	if probeErr != nil {
		return fmt.Errorf("dfs probe: %w", probeErr)
	}
	return nil
}
