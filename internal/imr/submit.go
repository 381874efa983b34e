package imr

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"imapreduce/internal/core"
	"imapreduce/internal/mapreduce"
	"imapreduce/internal/metrics"
	"imapreduce/internal/trace"
)

// JobSpec names the work a Submit call runs. Exactly one field must be
// set: an iMapReduce iterative job (persistent tasks, static/state
// separation), a plain batch MapReduce job, or a baseline client-driven
// iterative chain (one MapReduce job per iteration).
type JobSpec struct {
	// Iterative is an iMapReduce job executed by the core engine.
	Iterative *core.Job
	// Batch is a plain MapReduce job executed by the baseline engine.
	Batch *mapreduce.Job
	// Chain is the baseline's iterative pattern: one job per iteration
	// plus convergence-check jobs, driven from the client.
	Chain *mapreduce.IterSpec
}

// kind classifies a validated spec.
type specKind int

const (
	specIterative specKind = iota
	specBatch
	specChain
)

func (s JobSpec) validate() (specKind, error) {
	set := 0
	kind := specIterative
	if s.Iterative != nil {
		set++
	}
	if s.Batch != nil {
		set++
		kind = specBatch
	}
	if s.Chain != nil {
		set++
		kind = specChain
	}
	if set != 1 {
		return 0, fmt.Errorf("imr: JobSpec must set exactly one of Iterative, Batch, Chain (got %d)", set)
	}
	return kind, nil
}

// Name returns the job's user-assigned name.
func (s JobSpec) Name() string {
	switch {
	case s.Iterative != nil:
		return s.Iterative.Name
	case s.Batch != nil:
		return s.Batch.Name
	case s.Chain != nil:
		return s.Chain.Name
	}
	return ""
}

// SubmitOptions carries per-submission options. The zero value is a
// plain foreground-priority run under the default tenant.
type SubmitOptions struct {
	// Tenant names the submitting tenant. The cluster itself treats it
	// as a label; the serve.Service uses it for fair-share scheduling,
	// quotas and DFS namespacing. Empty means "default".
	Tenant string
	// Priority orders jobs within one tenant's queue (higher first) when
	// the job goes through a serve.Service scheduler; a plain cluster
	// Submit starts the job immediately regardless.
	Priority int
	// Resume cold-restarts an Iterative job from its newest durable
	// checkpoint manifest instead of initializing from StatePath.
	Resume bool
	// Metrics, if set, receives this job's engine counters instead of
	// the cluster-wide set (the DFS keeps reporting into the cluster
	// set). Used by serve for per-job metric isolation.
	Metrics *metrics.Set
	// Trace, if set, receives this job's engine events instead of the
	// cluster-wide recorder.
	Trace *trace.Recorder
}

// JobStatus is a JobHandle's lifecycle state.
type JobStatus int

const (
	// StatusQueued: admitted by a scheduler but not yet running (plain
	// cluster Submits never report this; serve queues do).
	StatusQueued JobStatus = iota
	// StatusRunning: the job is executing on an engine.
	StatusRunning
	// StatusDone: finished successfully; Result carries the outcome.
	StatusDone
	// StatusFailed: finished with an error other than cancellation.
	StatusFailed
	// StatusCanceled: finished due to Cancel or context cancellation.
	StatusCanceled
)

func (s JobStatus) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusDone:
		return "done"
	case StatusFailed:
		return "failed"
	case StatusCanceled:
		return "canceled"
	}
	return fmt.Sprintf("JobStatus(%d)", int(s))
}

// JobResult is the typed outcome of a submitted job; exactly the field
// matching the JobSpec kind is set.
type JobResult struct {
	Iterative *core.Result
	Batch     *mapreduce.JobResult
	Chain     *mapreduce.IterResult
}

// JobHandle tracks one submitted job. Handles are safe for concurrent
// use; Wait/Result may be called from any number of goroutines.
type JobHandle struct {
	spec JobSpec
	opts SubmitOptions

	cancel context.CancelCauseFunc
	done   chan struct{}

	mu     sync.Mutex
	status JobStatus
	res    *JobResult
	err    error
}

// Wait blocks until the job finishes or ctx is done. It returns the
// job's terminal error (nil on success); if ctx expires first it
// returns ctx.Err() and the job keeps running.
func (h *JobHandle) Wait(ctx context.Context) error {
	select {
	case <-h.done:
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cancel requests cancellation: the engine aborts the run at its next
// collection point and the job finishes with an error wrapping
// context.Canceled. Cancel on an already-finished handle is a no-op —
// the terminal status and result are never disturbed.
func (h *JobHandle) Cancel() {
	h.cancel(context.Canceled)
}

// Status reports the job's current lifecycle state.
func (h *JobHandle) Status() JobStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.status
}

// Result blocks until the job finishes and returns its typed outcome
// and terminal error. On error the result may be nil.
func (h *JobHandle) Result() (*JobResult, error) {
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.res, h.err
}

// finish records the terminal state exactly once.
func (h *JobHandle) finish(res *JobResult, err error) {
	h.mu.Lock()
	h.res, h.err = res, err
	switch {
	case err == nil:
		h.status = StatusDone
	case errors.Is(err, context.Canceled):
		h.status = StatusCanceled
	default:
		h.status = StatusFailed
	}
	h.mu.Unlock()
	close(h.done)
}

// Submit starts the job described by spec and returns a handle to it
// without blocking. The ctx bounds the whole run: when it is done the
// engine aborts the job and the handle finishes with an error wrapping
// ctx's cause. Concurrent Submits run concurrently — the cluster grows
// a per-run engine pool over the shared DFS, transport and spec — with
// one restriction: two active jobs cannot share a name, because a job's
// name namespaces its transport endpoints, checkpoints and manifests.
//
// This is the single entry point the former Run*/Resume* methods now
// delegate to.
func (c *Cluster) Submit(ctx context.Context, spec JobSpec, opts SubmitOptions) (*JobHandle, error) {
	kind, err := spec.validate()
	if err != nil {
		return nil, err
	}
	if opts.Resume && kind != specIterative {
		return nil, fmt.Errorf("imr: Resume applies to Iterative jobs only")
	}
	name := spec.Name()
	if name == "" {
		return nil, fmt.Errorf("imr: job without a name")
	}
	if err := c.claimName(name); err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancelCause(ctx)
	h := &JobHandle{
		spec: spec, opts: opts,
		cancel: cancel, done: make(chan struct{}),
		status: StatusRunning,
	}
	go func() {
		defer c.releaseName(name)
		defer cancel(nil)
		h.finish(c.execute(runCtx, kind, spec, opts))
	}()
	return h, nil
}

// execute runs the job on an engine acquired from the matching pool.
func (c *Cluster) execute(ctx context.Context, kind specKind, spec JobSpec, opts SubmitOptions) (*JobResult, error) {
	switch kind {
	case specIterative:
		eng, release, err := c.acquireCore(opts)
		if err != nil {
			return nil, err
		}
		defer release()
		var res *core.Result
		if opts.Resume {
			res, err = eng.ResumeCtx(ctx, spec.Iterative)
		} else {
			res, err = eng.RunCtx(ctx, spec.Iterative)
		}
		if err != nil {
			return nil, err
		}
		return &JobResult{Iterative: res}, nil
	case specBatch:
		eng, release, err := c.acquireMR(opts)
		if err != nil {
			return nil, err
		}
		defer release()
		res, err := eng.SubmitCtx(ctx, spec.Batch)
		if err != nil {
			return nil, err
		}
		return &JobResult{Batch: res}, nil
	default: // specChain
		eng, release, err := c.acquireMR(opts)
		if err != nil {
			return nil, err
		}
		defer release()
		res, err := mapreduce.RunIterativeCtx(ctx, eng, *spec.Chain)
		if err != nil {
			return nil, err
		}
		return &JobResult{Chain: res}, nil
	}
}

// claimName reserves a job name for the duration of its run.
func (c *Cluster) claimName(name string) error {
	c.engMu.Lock()
	defer c.engMu.Unlock()
	if c.activeNames[name] {
		return fmt.Errorf("imr: job %q is already active on this cluster", name)
	}
	c.activeNames[name] = true
	return nil
}

func (c *Cluster) releaseName(name string) {
	c.engMu.Lock()
	delete(c.activeNames, name)
	c.engMu.Unlock()
}

// acquireCore hands out an idle core engine, creating one when the pool
// is empty or when per-job metrics/trace isolation asks for a dedicated
// instance. The release closure returns poolable engines to the free
// list; dedicated ones are dropped. Every engine with an active run is
// tracked in coreActive so KillRun can find it.
func (c *Cluster) acquireCore(opts SubmitOptions) (*core.Engine, func(), error) {
	dedicated := opts.Metrics != nil || opts.Trace != nil
	var eng *core.Engine
	if dedicated {
		o := c.coreOpts
		if opts.Trace != nil {
			o.Trace = opts.Trace
		}
		m := opts.Metrics
		if m == nil {
			m = c.Metrics
		}
		e, err := core.NewEngine(c.FS, c.net, c.Spec, m, o)
		if err != nil {
			return nil, nil, err
		}
		eng = e
	} else {
		c.engMu.Lock()
		if n := len(c.coreFree); n > 0 {
			eng = c.coreFree[n-1]
			c.coreFree = c.coreFree[:n-1]
		}
		c.engMu.Unlock()
		if eng == nil {
			e, err := core.NewEngine(c.FS, c.net, c.Spec, c.Metrics, c.coreOpts)
			if err != nil {
				return nil, nil, err
			}
			eng = e
		}
	}
	c.engMu.Lock()
	c.coreActive = append(c.coreActive, eng)
	c.engMu.Unlock()
	release := func() {
		c.engMu.Lock()
		for i, e := range c.coreActive {
			if e == eng {
				c.coreActive = append(c.coreActive[:i], c.coreActive[i+1:]...)
				break
			}
		}
		if !dedicated {
			c.coreFree = append(c.coreFree, eng)
		}
		c.engMu.Unlock()
	}
	return eng, release, nil
}

// acquireMR is acquireCore for the baseline engine (which also runs one
// job at a time per instance).
func (c *Cluster) acquireMR(opts SubmitOptions) (*mapreduce.Engine, func(), error) {
	dedicated := opts.Metrics != nil || opts.Trace != nil
	var eng *mapreduce.Engine
	if dedicated {
		o := c.mrOpts
		if opts.Trace != nil {
			o.Trace = opts.Trace
		}
		m := opts.Metrics
		if m == nil {
			m = c.Metrics
		}
		e, err := mapreduce.NewEngine(c.FS, c.Spec, m, o)
		if err != nil {
			return nil, nil, err
		}
		eng = e
	} else {
		c.engMu.Lock()
		if n := len(c.mrFree); n > 0 {
			eng = c.mrFree[n-1]
			c.mrFree = c.mrFree[:n-1]
		}
		c.engMu.Unlock()
		if eng == nil {
			e, err := mapreduce.NewEngine(c.FS, c.Spec, c.Metrics, c.mrOpts)
			if err != nil {
				return nil, nil, err
			}
			eng = e
		}
	}
	release := func() {
		if dedicated {
			return
		}
		c.engMu.Lock()
		c.mrFree = append(c.mrFree, eng)
		c.engMu.Unlock()
	}
	return eng, release, nil
}
