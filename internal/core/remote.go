package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
	"imapreduce/internal/transport"
)

// Out-of-process deployment: one imrmaster process owns the namenode,
// the job master and the DFS block service; imrworker processes host
// the persistent task pairs. Workers register with the master over the
// same typed-frame transport the data plane uses; the master ships each
// worker a plan describing the task pairs it must spawn, and the
// workers answer with the listen addresses of the endpoints they bound,
// which the master folds into the shared address directory and
// re-broadcasts. Every control exchange rides at-least-once delivery,
// so all handlers here are idempotent.

// Control-plane logical addresses.
const (
	// CtlMasterAddr is the master's registration endpoint; it is the one
	// address a worker must know out-of-band (the -master flag).
	CtlMasterAddr = "ctl/master"
	// DFSAddr is the master-side block service endpoint.
	DFSAddr = "dfs/nn"
)

// ctlAddr is a worker's control endpoint.
func ctlAddr(worker string) string { return "ctl/" + worker }

// dfsClientAddr is a worker's DFS RPC reply endpoint.
func dfsClientAddr(worker string) string { return "dfs/c/" + worker }

// Control message kinds.
const (
	kindJoin    = "join"    // worker → master registration
	kindJoinAck = "joinack" // master → worker registration reply
	kindLeave   = "leave"   // worker → master graceful deregistration
	kindPing    = "ping"    // worker → master liveness probe
	kindPong    = "pong"    // master → worker liveness reply
	kindPlan    = "plan"    // master → worker task assignment
	kindPlanAck = "planack" // worker → master plan applied + endpoints
	kindDir     = "dir"     // master → worker directory snapshot
	kindRelease = "release" // master → worker run teardown
)

// joinMsg registers a worker. Endpoints carries the listen addresses of
// the worker's own control endpoints (its ctl address, at minimum).
type joinMsg struct {
	Worker    string
	Endpoints map[string]string
}

// joinAckMsg accepts a registration. Epoch identifies the master
// *process*: a worker seeing a different epoch in a pong knows the
// master restarted and its membership is gone. Directory is the
// master's current address table.
type joinAckMsg struct {
	Worker    string
	Epoch     int64
	Directory map[string]string
}

// leaveMsg deregisters a worker gracefully; during a run it feeds the
// same failure path a crash detection does, minus the detection delay.
type leaveMsg struct{ Worker string }

type pingMsg struct{ Worker string }

type pongMsg struct{ Epoch int64 }

// PairAssign names one task pair a plan assigns to a worker.
type PairAssign struct {
	Idx int
	Aux bool
}

// workerTuning is the scalar subset of Options a worker's task-context
// engine needs; the function-valued fields stay master-side.
type workerTuning struct {
	Timeout                time.Duration
	HeartbeatInterval      time.Duration
	HeartbeatMisses        int
	SendRetries            int
	SendRetryBackoff       time.Duration
	CheckpointRetries      int
	CheckpointRetryBackoff time.Duration
	Parallelism            int
}

// runMeta is the worker-side reconstruction recipe for runState.
type runMeta struct {
	Name         string
	MainPhases   int
	MainTasks    int
	AuxTasks     int
	OutputPath   string
	Placement    []string
	AuxPlacement []string
}

// planMsg tells a worker which task pairs to host. Epoch orders plans
// within a run: respawns after a failure bump it, and the master
// ignores acks from superseded epochs. Plans are full, not incremental
// — a worker spawns whatever assigned pairs it is missing and updates
// the placement table wholesale, so re-deliveries and re-plans are
// idempotent.
type planMsg struct {
	Epoch     int
	JobKey    string
	Params    map[string]string
	Spec      cluster.Spec
	Tuning    workerTuning
	Run       runMeta
	Assigns   []PairAssign
	Directory map[string]string
}

// planAckMsg reports a plan applied; Endpoints maps every task address
// the worker hosts to its listen address.
type planAckMsg struct {
	Worker    string
	Epoch     int
	Err       string
	Endpoints map[string]string
}

// dirMsg distributes a directory snapshot after endpoints moved.
type dirMsg struct {
	Entries map[string]string
}

// releaseMsg ends a run on the worker: tear down task endpoints and
// drop the run context.
type releaseMsg struct{ Job string }

func init() {
	kv.RegisterWireType(joinMsg{})
	kv.RegisterWireType(joinAckMsg{})
	kv.RegisterWireType(leaveMsg{})
	kv.RegisterWireType(pingMsg{})
	kv.RegisterWireType(pongMsg{})
	kv.RegisterWireType(planMsg{})
	kv.RegisterWireType(planAckMsg{})
	kv.RegisterWireType(dirMsg{})
	kv.RegisterWireType(releaseMsg{})
}

// RemoteClusterOptions configures the master's registration service.
type RemoteClusterOptions struct {
	// Listen is the host:port the control endpoint binds — the address
	// workers are pointed at. Required.
	Listen string
	// Epoch identifies this master process; 0 means derive one from the
	// wall clock. A restarted master presents a new epoch, which is how
	// surviving workers learn their registration is void.
	Epoch int64
}

// RemoteCluster is the master-side membership service: it owns the
// fixed control endpoint, admits joining workers, answers their
// liveness pings, and surfaces departures to the engine's failure path.
type RemoteCluster struct {
	net   *transport.TCPNetwork
	dir   *transport.Directory
	ep    transport.Endpoint
	epoch int64

	mu      sync.Mutex
	members map[string]bool
	changed chan struct{} // closed and replaced on every membership change
	onDown  func(worker string)

	wg sync.WaitGroup
}

// NewRemoteCluster binds the control endpoint at opts.Listen on net and
// starts admitting workers. dir must be the same directory net resolves
// through.
func NewRemoteCluster(net *transport.TCPNetwork, dir *transport.Directory, opts RemoteClusterOptions) (*RemoteCluster, error) {
	if opts.Listen == "" {
		return nil, fmt.Errorf("core: RemoteClusterOptions.Listen is required")
	}
	if opts.Epoch == 0 {
		opts.Epoch = time.Now().UnixNano()
	}
	ep, err := net.EndpointAt(CtlMasterAddr, opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("core: bind control endpoint: %w", err)
	}
	rc := &RemoteCluster{
		net: net, dir: dir, ep: ep, epoch: opts.Epoch,
		members: make(map[string]bool),
		changed: make(chan struct{}),
	}
	if hp, ok := net.ListenAddr(CtlMasterAddr); ok {
		dir.Set(CtlMasterAddr, hp)
	}
	rc.wg.Add(1)
	go rc.loop()
	return rc, nil
}

// Epoch identifies this master process to workers.
func (rc *RemoteCluster) Epoch() int64 { return rc.epoch }

// SetOnDown installs the callback invoked (from the control loop) when
// a registered worker leaves. The engine points it at FailWorker for
// the duration of a run.
func (rc *RemoteCluster) SetOnDown(fn func(worker string)) {
	rc.mu.Lock()
	rc.onDown = fn
	rc.mu.Unlock()
}

// Workers lists the registered worker IDs, sorted.
func (rc *RemoteCluster) Workers() []string {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make([]string, 0, len(rc.members))
	for w := range rc.members {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// WaitForWorkers blocks until at least min workers are registered and
// returns them.
func (rc *RemoteCluster) WaitForWorkers(ctx context.Context, min int) ([]string, error) {
	for {
		rc.mu.Lock()
		n := len(rc.members)
		ch := rc.changed
		rc.mu.Unlock()
		if n >= min {
			return rc.Workers(), nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, fmt.Errorf("core: waiting for %d workers (have %d): %w", min, n, ctx.Err())
		}
	}
}

// Spec builds a cluster spec over the registered workers.
func (rc *RemoteCluster) Spec(mapSlots, reduceSlots int) cluster.Spec {
	ids := rc.Workers()
	nodes := make([]cluster.Node, len(ids))
	for i, id := range ids {
		nodes[i] = cluster.Node{ID: id, Speed: 1.0}
	}
	return cluster.Spec{Nodes: nodes, MapSlots: mapSlots, ReduceSlots: reduceSlots}
}

func (rc *RemoteCluster) loop() {
	defer rc.wg.Done()
	for msg := range rc.ep.Recv() {
		switch pl := msg.Payload.(type) {
		case joinMsg:
			rc.dir.SetAll(pl.Endpoints)
			rc.mu.Lock()
			if !rc.members[pl.Worker] {
				rc.members[pl.Worker] = true
				close(rc.changed)
				rc.changed = make(chan struct{})
			}
			rc.mu.Unlock()
			ack := joinAckMsg{Worker: pl.Worker, Epoch: rc.epoch, Directory: rc.dir.Snapshot()}
			// The worker re-sends joins until it sees the ack; a lost
			// reply here only costs one retry round.
			_ = rc.ep.Send(ctlAddr(pl.Worker), transport.Message{Kind: kindJoinAck, Payload: ack})
		case leaveMsg:
			rc.mu.Lock()
			known := rc.members[pl.Worker]
			delete(rc.members, pl.Worker)
			down := rc.onDown
			if known {
				close(rc.changed)
				rc.changed = make(chan struct{})
			}
			rc.mu.Unlock()
			if known && down != nil {
				down(pl.Worker)
			}
		case pingMsg:
			// Liveness probes are periodic; a dropped pong is re-probed.
			_ = rc.ep.Send(ctlAddr(pl.Worker), transport.Message{Kind: kindPong, Payload: pongMsg{Epoch: rc.epoch}})
		}
	}
}

// Close shuts the control endpoint down and waits for the loop.
func (rc *RemoteCluster) Close() {
	rc.ep.Close()
	rc.wg.Wait()
}

// remoteRun is the engine's per-run remote deployment state: the
// membership service, the plan template re-sent (with bumped epochs and
// fresh placement) whenever pairs move, and the epoch counter.
type remoteRun struct {
	rc    *RemoteCluster
	plan  planMsg
	epoch int
}

// AttachRemote switches the engine to out-of-process deployment: runs
// ship task pairs to the registered workers via plans instead of
// spawning goroutine tasks. The engine's network must be rc's network.
func (e *Engine) AttachRemote(rc *RemoteCluster) {
	e.rc = rc
}

// planEndpointTimeout bounds how long the initial remote spawn waits
// for every worker's plan acknowledgement.
const planEndpointTimeout = 30 * time.Second

// assignsFor lists the pairs placed on worker w.
func assignsFor(run *runState, w string) []PairAssign {
	var out []PairAssign
	run.mu.RLock()
	for i, pw := range run.pairWorker {
		if pw == w {
			out = append(out, PairAssign{Idx: i})
		}
	}
	for i, aw := range run.auxWorker {
		if aw == w {
			out = append(out, PairAssign{Idx: i, Aux: true})
		}
	}
	run.mu.RUnlock()
	return out
}

// buildPlan instantiates the run's plan template for worker w at the
// given epoch, with the current placement and directory snapshot.
func (rr *remoteRun) buildPlan(run *runState, w string, epoch int) planMsg {
	p := rr.plan
	p.Epoch = epoch
	run.mu.RLock()
	p.Run.Placement = append([]string(nil), run.pairWorker...)
	p.Run.AuxPlacement = append([]string(nil), run.auxWorker...)
	run.mu.RUnlock()
	p.Assigns = assignsFor(run, w)
	p.Directory = rr.rc.dir.Snapshot()
	return p
}

// spawnRemote is the out-of-process counterpart of spawnTasks: instead
// of goroutines it sends every registered worker a plan, collects the
// endpoint listen addresses they bound, distributes the completed
// directory, and returns the same task set the master loop runs
// against — with no goroutines on the run's wait group, since the
// tasks live in other processes.
func (e *Engine) spawnRemote(job *Job, run *runState, master transport.Endpoint) (*taskSet, error) {
	if job.Registry == "" {
		return nil, fmt.Errorf("core: job %s: remote runs need Job.Registry (build it through internal/jobs)", job.Name)
	}
	rc := e.rc
	if hp, ok := rc.net.ListenAddr(masterAddr(job.Name)); ok {
		rc.dir.Set(masterAddr(job.Name), hp)
	}
	ts := buildTaskSet(run)

	rr := &remoteRun{
		rc: rc,
		plan: planMsg{
			JobKey: job.Registry,
			Params: job.Params,
			Spec:   e.spec,
			Tuning: workerTuning{
				Timeout:                e.opts.Timeout,
				HeartbeatInterval:      e.opts.HeartbeatInterval,
				HeartbeatMisses:        e.opts.HeartbeatMisses,
				SendRetries:            e.opts.SendRetries,
				SendRetryBackoff:       e.opts.SendRetryBackoff,
				CheckpointRetries:      e.opts.CheckpointRetries,
				CheckpointRetryBackoff: e.opts.CheckpointRetryBackoff,
				Parallelism:            e.opts.Parallelism,
			},
			Run: runMeta{
				Name:       run.name,
				MainPhases: run.mainPhases,
				MainTasks:  run.mainTasks,
				AuxTasks:   run.auxTasks,
				OutputPath: run.outputPath,
			},
		},
		epoch: 1,
	}

	workers := e.spec.IDs()
	pending := make(map[string]bool, len(workers))
	for _, w := range workers {
		pending[w] = true
		plan := rr.buildPlan(run, w, rr.epoch)
		if err := e.sendReliable(master, ctlAddr(w), transport.Message{Kind: kindPlan, Payload: plan}); err != nil {
			return nil, fmt.Errorf("core: job %s: plan to %s: %w", job.Name, w, err)
		}
	}

	deadline := time.After(planEndpointTimeout)
	for len(pending) > 0 {
		select {
		case msg, ok := <-master.Recv():
			if !ok {
				return nil, fmt.Errorf("core: job %s: master endpoint closed during deploy", job.Name)
			}
			ack, isAck := msg.Payload.(planAckMsg)
			if !isAck || ack.Epoch != rr.epoch || !pending[ack.Worker] {
				continue // early heartbeats and duplicate acks
			}
			if ack.Err != "" {
				return nil, fmt.Errorf("core: job %s: worker %s rejected plan: %s", job.Name, ack.Worker, ack.Err)
			}
			rc.dir.SetAll(ack.Endpoints)
			delete(pending, ack.Worker)
		case <-deadline:
			missing := make([]string, 0, len(pending))
			for w := range pending {
				missing = append(missing, w)
			}
			sort.Strings(missing)
			return nil, fmt.Errorf("core: job %s: workers %v never acknowledged their plan", job.Name, missing)
		}
	}
	e.broadcastDirectory(master, workers)
	e.remote = rr
	rc.SetOnDown(func(w string) { _ = e.FailWorker(w) })
	return ts, nil
}

// broadcastDirectory pushes the current directory snapshot to workers.
func (e *Engine) broadcastDirectory(master transport.Endpoint, workers []string) {
	snap := e.rc.dir.Snapshot()
	for _, w := range workers {
		// Workers that miss a snapshot re-learn moved addresses from the
		// next plan; the rollback that follows respawn re-drives traffic.
		_ = e.sendReliable(master, ctlAddr(w), transport.Message{Kind: kindDir, Payload: dirMsg{Entries: snap}})
	}
}

// respawnPlans re-sends full plans at a new epoch to every live worker
// after pairs moved off a dead one, and returns the ack-pending set.
// The caller (the master loop) defers the recovery rollback until every
// ack arrives, because tasks that do not exist yet cannot acknowledge a
// rollback.
func (e *Engine) respawnPlans(master transport.Endpoint, run *runState, live map[string]bool) map[string]bool {
	rr := e.remote
	rr.epoch++
	pending := make(map[string]bool)
	for w, ok := range live {
		if !ok {
			continue
		}
		pending[w] = true
		plan := rr.buildPlan(run, w, rr.epoch)
		// A worker that cannot be reached here is caught by the respawn
		// deadline in the master loop and declared failed itself.
		_ = e.sendReliable(master, ctlAddr(w), transport.Message{Kind: kindPlan, Payload: plan})
	}
	return pending
}

// invalidateRun drops every cached connection and dial gate pointing at
// the run's task addresses — after a respawn some of them moved to new
// listen addresses, and a cached conn or armed backoff gate would keep
// traffic pointed at the dead worker.
func (e *Engine) invalidateRun(ts *taskSet) {
	if e.rc == nil {
		return
	}
	for _, a := range ts.all {
		e.rc.net.Invalidate(a)
	}
}

// releaseRemote ends the run on every registered worker and detaches
// the engine's per-run remote state.
func (e *Engine) releaseRemote(master transport.Endpoint, jobName string) {
	rc := e.rc
	rc.SetOnDown(nil)
	for _, w := range rc.Workers() {
		// Best-effort: a worker that misses the release notices the
		// master's silence (or the next run's plan) and cleans up then.
		_ = master.Send(ctlAddr(w), transport.Message{Kind: kindRelease, Payload: releaseMsg{Job: jobName}})
	}
	e.remote = nil
}

// Ensure dfs.FS stays satisfied by both deployment shapes; the worker
// host hands tasks a *dfs.Client, the master a *dfs.DFS.
var _ dfs.FS = (*dfs.Client)(nil)
