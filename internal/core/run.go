package core

import (
	"fmt"
	"sync"
	"time"

	"imapreduce/internal/metrics"
	"imapreduce/internal/trace"
	"imapreduce/internal/transport"
)

// runState is one run: the routing table task goroutines consult for
// worker bindings (the master updates them on migration and recovery),
// and the owner of everything the run acquires — every endpoint it
// opens, the pair-loop pool, and the task goroutines. Both deployment
// shapes build it through newRun and tear it down through the release
// newRun returns, so there is exactly one setup and one teardown per
// run (§3.1.1: persistent tasks live exactly as long as their job).
type runState struct {
	name       string
	mainPhases int
	mainTasks  int
	auxTasks   int
	outputPath string

	mu         sync.RWMutex
	pairWorker []string // main task pairs
	auxWorker  []string

	// net is where the run's endpoints live. eps holds them in open
	// order and byAddr indexes them; both are touched only by the
	// goroutine that builds and releases the run (the engine's Run
	// caller, the WorkerHost's Run loop), never by tasks.
	net    transport.Network
	eps    []transport.Endpoint
	byAddr map[string]transport.Endpoint
	// pool is the run-scoped worker pool tasks shard their pair loops
	// across.
	pool *workerPool
	// wg joins every task goroutine (and, transitively, the checkpoint
	// writers each reduce task joins before exiting).
	wg sync.WaitGroup
}

// newRun builds the state of one run described by meta, starting its
// pair-loop pool, and returns it with its release. release(clean)
// closes every endpoint the run opened (task loops exit on their closed
// inbox; the first one opened — the engine's master — closes last),
// stops the pool, and joins the task goroutines and pool workers. A
// clean release waits for all of them, so no run-owned goroutine
// touches the DFS or the network after a completed run. Any other
// release waits at most grace: a failed or abandoned run may hold a
// task wedged inside a user function or an in-flight DFS call, and
// those stragglers are abandoned. The pool stops before the join, so a
// straggler that still submits shards just runs them inline.
func newRun(net transport.Network, meta runMeta, parallelism int, grace time.Duration) (*runState, func(clean bool)) {
	r := &runState{
		name:       meta.Name,
		mainPhases: meta.MainPhases,
		mainTasks:  meta.MainTasks,
		auxTasks:   meta.AuxTasks,
		outputPath: meta.OutputPath,
		pairWorker: make([]string, meta.MainTasks),
		auxWorker:  make([]string, meta.AuxTasks),
		net:        net,
		byAddr:     make(map[string]transport.Endpoint),
		pool:       newWorkerPool(parallelism),
	}
	copy(r.pairWorker, meta.Placement)
	copy(r.auxWorker, meta.AuxPlacement)
	release := func(clean bool) {
		for i := len(r.eps) - 1; i >= 0; i-- {
			r.eps[i].Close()
		}
		r.pool.close()
		joined := make(chan struct{})
		go func() { r.wg.Wait(); r.pool.join(); close(joined) }()
		if clean {
			<-joined
			return
		}
		select {
		case <-joined:
		case <-time.After(grace):
		}
	}
	return r, release
}

// endpoint opens endpoint addr for the run, or returns the one the run
// already opened there; release closes it.
func (r *runState) endpoint(addr string) (transport.Endpoint, error) {
	if ep, ok := r.byAddr[addr]; ok {
		return ep, nil
	}
	ep, err := r.net.Endpoint(addr)
	if err != nil {
		return nil, err
	}
	r.eps = append(r.eps, ep)
	r.byAddr[addr] = ep
	return ep, nil
}

// phaseCounts lists the task-pair count of every phase: the main
// phases, then the auxiliary phase when the job has one.
func (r *runState) phaseCounts() []int {
	counts := make([]int, r.mainPhases, r.mainPhases+1)
	for i := range counts {
		counts[i] = r.mainTasks
	}
	if r.auxTasks > 0 {
		counts = append(counts, r.auxTasks)
	}
	return counts
}

func (r *runState) ckptPath(iter, part int) string {
	return fmt.Sprintf("/_imr/%s/ckpt-%06d/part-%d", r.name, iter, part)
}

func (r *runState) staticPartPath(phase, part int) string {
	return fmt.Sprintf("/_imr/%s/static-%d/part-%d", r.name, phase, part)
}

// workerOfPhasePair returns the worker currently hosting pair idx of the
// given global phase (auxiliary phases index their own table).
func (r *runState) workerOfPhasePair(phase, idx int) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if phase >= r.mainPhases {
		return r.auxWorker[idx]
	}
	return r.pairWorker[idx]
}

func (r *runState) setPairWorker(idx int, w string, aux bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if aux {
		r.auxWorker[idx] = w
	} else {
		r.pairWorker[idx] = w
	}
}

// spawnPair launches task pair (phase, idx) of the factory's run: it
// opens the map endpoint, loads the map's static partition, opens the
// reduce endpoint, and starts both task loops on the run's WaitGroup.
// The endpoints belong to the run, so a pair that fails half-way leaks
// nothing past release.
func (f *taskFactory) spawnPair(phase, idx int) (*mapTask, *reduceTask, error) {
	mep, err := f.run.endpoint(mapAddr(f.run.name, phase, idx))
	if err != nil {
		return nil, nil, err
	}
	mt := f.buildMapTask(phase, idx, mep)
	if err := mt.loadStatic(); err != nil {
		return nil, nil, err
	}
	rep, err := f.run.endpoint(redAddr(f.run.name, phase, idx))
	if err != nil {
		return nil, nil, err
	}
	rt := f.buildReduceTask(phase, idx, rep)
	taskIdx, ph := idx, fmt.Sprint(phase)
	if mt.isAux {
		taskIdx, ph = f.n+idx, "aux"
	}
	f.e.m.Add(metrics.TasksLaunched, 2)
	f.e.opts.Trace.Emit(trace.KindTaskLaunch, mt.worker, taskIdx, 0,
		trace.Attr{Key: "phase", Value: ph})
	f.run.wg.Add(2)
	go func() { defer f.run.wg.Done(); mt.loop() }()
	go func() { defer f.run.wg.Done(); rt.loop() }()
	return mt, rt, nil
}
