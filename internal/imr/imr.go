// Package imr is the front door of the framework: one Cluster owning
// the DFS, the metrics, and both engines, mirroring the paper's
// prototype, which "supports any Hadoop job" and lets users "turn on
// iterative processing functionalities for implementing iterative
// algorithms, or turn them off for implementing MapReduce jobs as
// usual" (§3.5).
//
//	c, _ := imr.NewCluster(imr.Options{Workers: 4})
//	h, _ := c.Submit(ctx, imr.JobSpec{Iterative: iterJob}, imr.SubmitOptions{})
//	res, err := h.Result() // or h.Wait(ctx) / h.Cancel() / h.Status()
//
// Submit is the single entry point for all three execution styles —
// iMapReduce iterative jobs, plain batch MapReduce, and the baseline
// job-chain pattern (SubmitOptions.Resume cold-restarts an iterative
// job from its newest durable checkpoint) — and returns a JobHandle
// immediately; Wait or Result block on it.
package imr

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
	"imapreduce/internal/mapreduce"
	"imapreduce/internal/metrics"
	"imapreduce/internal/trace"
	"imapreduce/internal/transport"
)

// Options configures a Cluster. The zero value gives 4 uniform workers,
// an in-process transport, an in-memory DFS with the paper's block size
// and replication, and Hadoop-like defaults everywhere else.
type Options struct {
	// Workers is the cluster size (default 4, the paper's local
	// cluster).
	Workers int
	// Spec overrides the generated uniform spec entirely (Workers is
	// then ignored).
	Spec *cluster.Spec
	// TCP uses real loopback sockets between tasks instead of
	// in-process channels.
	TCP bool
	// Network overrides the task transport entirely — e.g. a
	// transport.FaultyNetwork for chaos testing. TCP is then ignored.
	Network transport.Network
	// DFS overrides the file system configuration.
	DFS *dfs.Config
	// JobInitOverhead / TaskStartOverhead emulate Hadoop scheduling
	// costs (0 = free, the default).
	JobInitOverhead   time.Duration
	TaskStartOverhead time.Duration
	// MapReduce tunes the baseline engine (locality scheduling defaults
	// to on).
	MapReduce *mapreduce.Options
	// Core tunes the iMapReduce engine.
	Core *core.Options
	// Metrics receives the run counters (a fresh set by default).
	Metrics *metrics.Set
	// Trace, if set, receives structured events from both engines and
	// (on TCP clusters) the transport. Nil disables tracing at no cost.
	Trace *trace.Recorder
	// OnIteration, if set, is called from the iterative master at every
	// committed iteration boundary.
	OnIteration func(core.IterInfo)
}

// Cluster bundles one simulated cluster with both execution engines
// over a shared DFS and metrics set. Submit is the front door; many
// jobs may run concurrently (the cluster grows per-run engines over
// the shared substrate on demand), as long as their names differ.
type Cluster struct {
	Spec    cluster.Spec
	FS      *dfs.DFS
	Metrics *metrics.Set

	net      transport.Network
	coreOpts core.Options
	mrOpts   mapreduce.Options

	mr   *mapreduce.Engine
	core *core.Engine

	// engMu guards the engine pools and the active-run name registry
	// that Submit maintains.
	engMu       sync.Mutex
	coreFree    []*core.Engine
	coreActive  []*core.Engine
	mrFree      []*mapreduce.Engine
	activeNames map[string]bool
}

// NewCluster builds a cluster from opts.
func NewCluster(opts Options) (*Cluster, error) {
	spec := cluster.Uniform(4)
	if opts.Workers > 0 {
		spec = cluster.Uniform(opts.Workers)
	}
	if opts.Spec != nil {
		spec = *opts.Spec
	}
	spec.JobInitOverhead = opts.JobInitOverhead
	spec.TaskStartOverhead = opts.TaskStartOverhead
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	m := opts.Metrics
	if m == nil {
		m = metrics.NewSet()
	}
	dcfg := dfs.DefaultConfig()
	if opts.DFS != nil {
		dcfg = *opts.DFS
	}
	fs := dfs.New(dcfg, spec.IDs(), m)

	mrOpts := mapreduce.Options{LocalityAware: true}
	if opts.MapReduce != nil {
		mrOpts = *opts.MapReduce
	}
	if mrOpts.Trace == nil {
		mrOpts.Trace = opts.Trace
	}
	mrEngine, err := mapreduce.NewEngine(fs, spec, m, mrOpts)
	if err != nil {
		return nil, err
	}

	var net transport.Network = transport.NewChanNetwork()
	if opts.TCP {
		tcp := transport.NewTCPNetwork()
		tcp.SetTrace(opts.Trace)
		net = tcp
	}
	if opts.Network != nil {
		net = opts.Network
	}
	coreOpts := core.Options{}
	if opts.Core != nil {
		coreOpts = *opts.Core
	}
	if coreOpts.Trace == nil {
		coreOpts.Trace = opts.Trace
	}
	if coreOpts.OnIteration == nil {
		coreOpts.OnIteration = opts.OnIteration
	}
	coreEngine, err := core.NewEngine(fs, net, spec, m, coreOpts)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		Spec: spec, FS: fs, Metrics: m,
		net: net, coreOpts: coreOpts, mrOpts: mrOpts,
		mr: mrEngine, core: coreEngine,
		activeNames: make(map[string]bool),
	}
	// The engines built above seed the Submit pools.
	c.coreFree = []*core.Engine{coreEngine}
	c.mrFree = []*mapreduce.Engine{mrEngine}
	return c, nil
}

// ErrNoActiveRun is returned by KillRun when no iterative run is
// active. It wraps core.ErrKilled so callers probing for "the kill
// path" with errors.Is(err, core.ErrKilled) see both the no-run
// rejection and a killed run's error uniformly.
var ErrNoActiveRun = fmt.Errorf("imr: no active iterative run: %w", core.ErrKilled)

// KillRun tears down an active iterative run as if the engine process
// crashed: no final output, checkpoints and manifests left in place for
// a later resume. With several concurrent runs the earliest-acquired
// engine's run is killed. The killed run returns an error wrapping
// core.ErrKilled; when no run is active KillRun returns ErrNoActiveRun
// (never a silent nil).
func (c *Cluster) KillRun() error {
	c.engMu.Lock()
	engines := append([]*core.Engine(nil), c.coreActive...)
	c.engMu.Unlock()
	for _, eng := range engines {
		if eng.Kill() == nil {
			return nil
		}
	}
	return ErrNoActiveRun
}

// MapReduceEngine exposes the baseline engine for advanced use.
func (c *Cluster) MapReduceEngine() *mapreduce.Engine { return c.mr }

// CoreEngine exposes the iMapReduce engine for advanced use.
func (c *Cluster) CoreEngine() *core.Engine { return c.core }

// FailWorker injects a worker crash into an active iterative run (with
// several concurrent runs, the earliest-acquired engine's run).
func (c *Cluster) FailWorker(id string) error {
	c.engMu.Lock()
	engines := append([]*core.Engine(nil), c.coreActive...)
	c.engMu.Unlock()
	var last error = ErrNoActiveRun
	for _, eng := range engines {
		if err := eng.FailWorker(id); err == nil {
			return nil
		} else {
			last = err
		}
	}
	return last
}

// StallWorker freezes worker id's tasks for d without any announcement
// — an undetected hang, recoverable only through heartbeat detection
// (core.Options.HeartbeatInterval). The stall applies to every engine
// with an active run.
func (c *Cluster) StallWorker(id string, d time.Duration) {
	c.engMu.Lock()
	engines := append([]*core.Engine(nil), c.coreActive...)
	c.engMu.Unlock()
	if len(engines) == 0 {
		engines = []*core.Engine{c.core}
	}
	for _, eng := range engines {
		eng.StallWorker(id, d)
	}
}

// Write stores records as a DFS file at the first worker.
func (c *Cluster) Write(path string, recs []kv.Pair, ops kv.Ops) error {
	return c.FS.WriteFile(path, c.Spec.IDs()[0], recs, ops)
}

// ReadAll collects every record under a part-file directory (or a
// single file) into a key→value map. It is ReadAllAs with both types
// left dynamic; the same merge rule applies.
func (c *Cluster) ReadAll(dir string) (map[any]any, error) {
	return ReadAllAs[any, any](c, dir)
}

// ReadAllAs collects every record under a part-file directory (or a
// single file) into a typed key→value map, asserting each record to
// K/V. Merge rule: a key may appear in several part files only if every
// occurrence carries an equal value (replicated output); part files
// that disagree on a key are an error, never a silent overwrite.
func ReadAllAs[K comparable, V any](c *Cluster, dir string) (map[K]V, error) {
	paths := c.FS.List(dir + "/")
	if len(paths) == 0 {
		if !c.FS.Exists(dir) {
			return nil, fmt.Errorf("imr: no output at %q", dir)
		}
		paths = []string{dir}
	}
	out := map[K]V{}
	for _, p := range paths {
		recs, err := c.FS.ReadFile(p, c.Spec.IDs()[0])
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			k, ok := r.Key.(K)
			if !ok {
				return nil, fmt.Errorf("imr: %s: key %v is %T, want %T", p, r.Key, r.Key, *new(K))
			}
			v, ok := r.Value.(V)
			if !ok {
				return nil, fmt.Errorf("imr: %s: value for key %v is %T, want %T", p, r.Key, r.Value, *new(V))
			}
			if prev, dup := out[k]; dup && !reflect.DeepEqual(prev, v) {
				return nil, fmt.Errorf("imr: %s: key %v has conflicting values %v and %v across part files", dir, k, prev, v)
			}
			out[k] = v
		}
	}
	return out, nil
}
