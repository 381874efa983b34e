package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"imapreduce/internal/dfs"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

// JobBuilder rebuilds a job definition from its registry key and
// parameters — the worker-side half of Job.Registry/Job.Params, since
// map/reduce functions cannot cross the wire.
type JobBuilder func(key string, params map[string]string) (*Job, error)

// WorkerHostOptions configures one worker process.
type WorkerHostOptions struct {
	// ID names this worker; it doubles as its DFS datanode name and must
	// be stable across restarts so a rejoin is recognizable. Required.
	ID string
	// MasterAddr is the host:port of the master's control endpoint.
	// Required.
	MasterAddr string
	// ListenHost is the interface task endpoints bind (default
	// 127.0.0.1).
	ListenHost string
	// Build rebuilds jobs from plan messages. Required.
	Build JobBuilder
	// Metrics may be nil.
	Metrics *metrics.Set

	// PingInterval paces the liveness probes to the master (default
	// 500ms); PingMisses consecutive silent intervals declare the master
	// dead (default 6), tearing the run down and re-entering the join
	// loop.
	PingInterval time.Duration
	PingMisses   int
	// JoinBackoff/JoinBackoffMax bound the jittered exponential backoff
	// between registration attempts (defaults 100ms / 3s).
	JoinBackoff    time.Duration
	JoinBackoffMax time.Duration
}

// WorkerHost is one worker process: it registers with the master,
// hosts the task pairs plans assign to it, pings for master liveness,
// and deregisters gracefully on shutdown. All run mutation happens on
// the Run goroutine; the task goroutines touch only their own engine
// context.
type WorkerHost struct {
	opts WorkerHostOptions
	dir  *transport.Directory
	net  *transport.TCPNetwork
	ctl  transport.Endpoint
	fsEp transport.Endpoint
	fs   *dfs.Client

	mu  sync.Mutex
	run *hostedRun
}

// hostedRun is one deployed job on this worker.
type hostedRun struct {
	epoch   int
	run     *runState
	release func(clean bool)
	factory *taskFactory
}

// NewWorkerHost builds the host and binds its control endpoint; Run
// starts the protocol.
func NewWorkerHost(opts WorkerHostOptions) (*WorkerHost, error) {
	if opts.ID == "" || opts.MasterAddr == "" || opts.Build == nil {
		return nil, fmt.Errorf("core: WorkerHostOptions needs ID, MasterAddr and Build")
	}
	if opts.PingInterval <= 0 {
		opts.PingInterval = 500 * time.Millisecond
	}
	if opts.PingMisses <= 0 {
		opts.PingMisses = 6
	}
	if opts.JoinBackoff <= 0 {
		opts.JoinBackoff = 100 * time.Millisecond
	}
	if opts.JoinBackoffMax <= 0 {
		opts.JoinBackoffMax = 3 * time.Second
	}
	dir := transport.NewDirectory()
	dir.Set(CtlMasterAddr, opts.MasterAddr)
	net := transport.NewTCPNetworkOpts(transport.TCPOptions{
		ListenHost: opts.ListenHost,
		Resolver:   dir.Resolve,
	})
	ctl, err := net.Endpoint(ctlAddr(opts.ID))
	if err != nil {
		net.Close()
		return nil, err
	}
	// The DFS client endpoint lives as long as the host (not one run):
	// its listen address travels in the join frame, so the master can
	// route RPC responses back before the first plan is even applied —
	// the worker's very first static load depends on that.
	fsEp, err := net.Endpoint(dfsClientAddr(opts.ID))
	if err != nil {
		net.Close()
		return nil, err
	}
	fs := dfs.NewClient(fsEp, DFSAddr, dfs.ClientOptions{})
	return &WorkerHost{opts: opts, dir: dir, net: net, ctl: ctl, fsEp: fsEp, fs: fs}, nil
}

// Terminate kills the host abruptly — no leave, no drain — as close to
// kill -9 as one process can emulate another's death. Run returns
// shortly after.
func (w *WorkerHost) Terminate() { w.net.Close() }

// Run drives the worker protocol until ctx is canceled (graceful
// shutdown: deregister, drain, exit) or the host is terminated. A lost
// master tears the current run down and re-enters the join loop with
// backoff, so an `imrmaster -resume` finds its surviving workers
// already knocking.
func (w *WorkerHost) Run(ctx context.Context) error {
	defer func() {
		w.teardownRun()
		w.net.Close()
	}()

	joined := false
	var joinedEpoch int64
	lastPong := time.Now()
	var lastTick time.Time
	nextJoin := time.Now()
	joinBackoff := w.opts.JoinBackoff
	// The join pacing rides the ping ticker: at PingInterval granularity
	// the worker either re-sends a registration (gated by the jittered
	// backoff) or probes the master it is registered with.
	tick := time.NewTicker(w.opts.PingInterval)
	defer tick.Stop()

	unregister := func() {
		w.teardownRun()
		joined = false
		joinBackoff = w.opts.JoinBackoff
		nextJoin = time.Now()
		lastPong = time.Now()
	}

	for {
		select {
		case <-ctx.Done():
			if joined {
				// Graceful deregistration: the master re-places our pairs
				// through the same path a detected crash takes, minus the
				// detection delay.
				_, _ = transport.ReliableSend(w.ctl, CtlMasterAddr,
					transport.Message{Kind: kindLeave, Payload: leaveMsg{Worker: w.opts.ID}},
					3, 10*time.Millisecond)
			}
			return nil

		case <-tick.C:
			if !joined {
				if !time.Now().After(nextJoin) {
					continue
				}
				join := joinMsg{Worker: w.opts.ID, Endpoints: map[string]string{}}
				for _, addr := range []string{ctlAddr(w.opts.ID), dfsClientAddr(w.opts.ID)} {
					if hp, ok := w.net.ListenAddr(addr); ok {
						join.Endpoints[addr] = hp
					}
				}
				// Registration is retried on this backoff schedule until
				// the master answers; dial failures additionally sit behind
				// the transport's own dial gate.
				_ = w.ctl.Send(CtlMasterAddr, transport.Message{Kind: kindJoin, Payload: join})
				nextJoin = time.Now().Add(joinBackoff/2 + time.Duration(rand.Int63n(int64(joinBackoff/2)+1)))
				if joinBackoff *= 2; joinBackoff > w.opts.JoinBackoffMax {
					joinBackoff = w.opts.JoinBackoffMax
				}
				continue
			}
			// Probes are periodic; a dropped one is indistinguishable from
			// a missed pong and the next tick re-probes.
			_ = w.ctl.Send(CtlMasterAddr, transport.Message{Kind: kindPing, Payload: pingMsg{Worker: w.opts.ID}})
			// Silence only counts if this loop was actually probing: a
			// tick arriving late means the loop itself was busy (applying
			// a plan is the long pole — every static block loads inside
			// it), not that the master went quiet. Skip one check so the
			// queued pongs drain and the probe cadence re-establishes.
			if !lastTick.IsZero() && time.Since(lastTick) > 2*w.opts.PingInterval {
				lastTick = time.Now()
				continue
			}
			lastTick = time.Now()
			if time.Since(lastPong) > time.Duration(w.opts.PingMisses)*w.opts.PingInterval {
				// Master lost: drop the run (its DFS lives in the master
				// process anyway) and re-register — a resumed master
				// rebuilds membership from exactly these rejoin attempts.
				unregister()
			}

		case msg, ok := <-w.ctl.Recv():
			if !ok {
				return nil // terminated
			}
			switch pl := msg.Payload.(type) {
			case joinAckMsg:
				if pl.Worker != w.opts.ID {
					continue
				}
				w.dir.SetAll(pl.Directory)
				joined, joinedEpoch, lastPong = true, pl.Epoch, time.Now()
			case pongMsg:
				if joined && pl.Epoch != joinedEpoch {
					// A pong from a different master process: it restarted
					// and our membership is void. Rejoin from scratch.
					unregister()
					continue
				}
				lastPong = time.Now()
			case planMsg:
				ack := w.applyPlan(pl)
				// The master re-plans (and eventually declares us failed)
				// if the ack is lost; re-delivered plans re-ack.
				_ = w.ctl.Send(msg.From, transport.Message{Kind: kindPlanAck, Payload: ack})
				// A plan is proof of master liveness as strong as any
				// pong — and applying it blocked this loop for as long as
				// the static loads took, a span that must not be read as
				// master silence (it would tear down the run just planned).
				lastPong = time.Now()
			case dirMsg:
				for _, peer := range w.dir.SetAll(pl.Entries) {
					w.net.Invalidate(peer)
				}
				lastPong = time.Now()
			case releaseMsg:
				w.teardownRun()
				lastPong = time.Now()
			}
		}
	}
}

// applyPlan deploys (or re-deploys) a plan: build the run context if
// this is the first plan of the job, adopt the plan's placement
// wholesale, spawn whatever assigned task pairs are missing, and report
// every hosted endpoint's listen address. Idempotent: re-delivered and
// superseded plans just re-ack the current state.
func (w *WorkerHost) applyPlan(p planMsg) planAckMsg {
	ack := planAckMsg{Worker: w.opts.ID, Epoch: p.Epoch, Endpoints: map[string]string{}}
	for _, peer := range w.dir.SetAll(p.Directory) {
		w.net.Invalidate(peer)
	}
	w.mu.Lock()
	r := w.run
	w.mu.Unlock()
	if r != nil && r.run.name != p.Run.Name {
		w.teardownRun()
		r = nil
	}
	if r == nil {
		var err error
		if r, err = w.startRun(p); err != nil {
			ack.Err = err.Error()
			return ack
		}
		w.mu.Lock()
		w.run = r
		w.mu.Unlock()
	}
	if p.Epoch > r.epoch {
		r.epoch = p.Epoch
		r.run.mu.Lock()
		copy(r.run.pairWorker, p.Run.Placement)
		copy(r.run.auxWorker, p.Run.AuxPlacement)
		r.run.mu.Unlock()
		for _, a := range p.Assigns {
			first, limit := 0, r.run.mainPhases
			if a.Aux {
				first, limit = r.run.mainPhases, r.run.mainPhases+1
			}
			for phase := first; phase < limit; phase++ {
				// Re-delivered plans skip the pairs already running here.
				if r.run.byAddr[mapAddr(r.run.name, phase, a.Idx)] != nil &&
					r.run.byAddr[redAddr(r.run.name, phase, a.Idx)] != nil {
					continue
				}
				if _, _, err := r.factory.spawnPair(phase, a.Idx); err != nil {
					ack.Err = err.Error()
					return ack
				}
			}
		}
	}
	for addr := range r.run.byAddr {
		if hp, ok := w.net.ListenAddr(addr); ok {
			ack.Endpoints[addr] = hp
		}
	}
	if hp, ok := w.net.ListenAddr(dfsClientAddr(w.opts.ID)); ok {
		ack.Endpoints[dfsClientAddr(w.opts.ID)] = hp
	}
	return ack
}

// startRun builds the per-job context: the job from the registry, a
// task-context engine over the host's DFS client and network, and the
// run itself, released by teardownRun.
func (w *WorkerHost) startRun(p planMsg) (*hostedRun, error) {
	job, err := w.opts.Build(p.JobKey, p.Params)
	if err != nil {
		return nil, fmt.Errorf("core: worker %s: build job %q: %w", w.opts.ID, p.JobKey, err)
	}
	phases := job.Phases()
	if len(phases) != p.Run.MainPhases {
		return nil, fmt.Errorf("core: worker %s: job %q built %d phases, plan says %d — registry drift",
			w.opts.ID, p.JobKey, len(phases), p.Run.MainPhases)
	}
	if (job.auxiliary != nil) != (p.Run.AuxTasks > 0) {
		return nil, fmt.Errorf("core: worker %s: job %q auxiliary phase mismatch with plan — registry drift", w.opts.ID, p.JobKey)
	}
	eng, err := NewEngine(w.fs, w.net, p.Spec, w.opts.Metrics, Options{
		Timeout:                p.Tuning.Timeout,
		HeartbeatInterval:      p.Tuning.HeartbeatInterval,
		HeartbeatMisses:        p.Tuning.HeartbeatMisses,
		SendRetries:            p.Tuning.SendRetries,
		SendRetryBackoff:       p.Tuning.SendRetryBackoff,
		CheckpointRetries:      p.Tuning.CheckpointRetries,
		CheckpointRetryBackoff: p.Tuning.CheckpointRetryBackoff,
		Parallelism:            p.Tuning.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	// A run torn down because the master vanished may hold tasks wedged
	// inside user functions or in-flight DFS calls, so release waits only
	// a short grace. The DFS endpoint is not the run's: it belongs to the
	// host, and the host's own shutdown (net.Close) is what fails those
	// calls fast.
	run, release := newRun(w.net, p.Run, p.Tuning.Parallelism, 2*time.Second)
	return &hostedRun{
		run:     run,
		release: release,
		factory: newTaskFactory(eng, job, run),
	}, nil
}

// teardownRun releases the current run, if any: its endpoints close
// (task loops exit on their closed inbox) and its goroutines are joined
// within the run's grace.
func (w *WorkerHost) teardownRun() {
	w.mu.Lock()
	r := w.run
	w.run = nil
	w.mu.Unlock()
	if r != nil {
		r.release(false)
	}
}
