package imr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"imapreduce/internal/core"
	"imapreduce/internal/kv"
	"imapreduce/internal/mapreduce"
	"imapreduce/internal/metrics"
	"imapreduce/internal/trace"
)

func seedHalveState(t *testing.T, c *Cluster) {
	t.Helper()
	var recs []kv.Pair
	for i := 0; i < 12; i++ {
		recs = append(recs, kv.Pair{Key: int64(i), Value: 1.0})
	}
	if err := c.Write("/state", recs, kv.OpsFor[int64, float64](nil)); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitHandle walks the happy path of the handle API: immediate
// return, running status, Wait and Result agreeing, terminal Done.
func TestSubmitHandle(t *testing.T) {
	c, err := NewCluster(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	seedHalveState(t, c)
	h, err := c.Submit(context.Background(), JobSpec{Iterative: halveJob("handle", 5)}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := h.Status(); st != StatusRunning && st != StatusDone {
		t.Fatalf("fresh handle status %v", st)
	}
	if err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := h.Result()
	if err != nil || res == nil || res.Iterative == nil {
		t.Fatalf("result %v %v", res, err)
	}
	if res.Iterative.Iterations != 5 {
		t.Fatalf("iterations = %d", res.Iterative.Iterations)
	}
	if h.Status() != StatusDone {
		t.Fatalf("terminal status %v", h.Status())
	}
	// Cancel after finish is a documented no-op.
	h.Cancel()
	if h.Status() != StatusDone {
		t.Fatalf("cancel flipped terminal status to %v", h.Status())
	}
}

// TestSubmitConcurrentJobs runs several iterative jobs at once on one
// cluster, each on its own engine — what the serve layer builds on —
// and checks each result is exact.
func TestSubmitConcurrentJobs(t *testing.T) {
	c, err := NewCluster(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	seedHalveState(t, c)
	const jobsN = 6
	handles := make([]*JobHandle, jobsN)
	sets := make([]*metrics.Set, jobsN)
	for i := range handles {
		iters := 3 + i
		job := halveJob(fmt.Sprintf("conc-%d", i), iters)
		job.OutputPath = fmt.Sprintf("/out/conc-%d", i)
		sets[i] = metrics.NewSet()
		h, err := c.Submit(context.Background(), JobSpec{Iterative: job},
			SubmitOptions{Metrics: sets[i]})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		res, err := h.Result()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		iters := 3 + i
		if res.Iterative.Iterations != iters {
			t.Fatalf("job %d iterations = %d, want %d", i, res.Iterative.Iterations, iters)
		}
		out, err := ReadAllAs[int64, float64](c, fmt.Sprintf("/out/conc-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		want := math.Pow(2, -float64(iters))
		for k, v := range out {
			if v != want {
				t.Fatalf("job %d key %d = %v, want %v", i, k, v, want)
			}
		}
		// Per-job metric isolation: each private set saw exactly its
		// own run's iterations.
		if n := sets[i].Get(metrics.Iterations); n != int64(iters) {
			t.Fatalf("job %d private iterations = %d, want %d", i, n, iters)
		}
	}
}

// TestSubmitObserverRouting runs one job of each spec kind with its
// own metrics set and recorder, concurrently with a plain job: each
// run's engine reports only into its own sinks, the plain job's into
// the cluster's, and DFS counters always land in the cluster set.
func TestSubmitObserverRouting(t *testing.T) {
	clusterTrace := trace.NewRecorder(0)
	c, err := NewCluster(Options{Workers: 2, Trace: clusterTrace})
	if err != nil {
		t.Fatal(err)
	}
	seedHalveState(t, c)
	if err := c.Write("/words", []kv.Pair{{Key: int64(0), Value: "a b a"}}, kv.OpsFor[int64, string](nil)); err != nil {
		t.Fatal(err)
	}
	var initRecs []kv.Pair
	for i := 0; i < 6; i++ {
		initRecs = append(initRecs, kv.Pair{Key: int64(i), Value: mapreduce.IterValue{State: 1.0}})
	}
	if err := c.Write("/chain-init", initRecs, kv.OpsFor[int64, mapreduce.IterValue](nil)); err != nil {
		t.Fatal(err)
	}

	iterJob := halveJob("route-iter", 4)
	iterJob.OutputPath = "/out/route-iter"
	plainJob := halveJob("route-plain", 2)
	plainJob.OutputPath = "/out/route-plain"
	specs := []struct {
		spec       JobSpec
		jobs, iter int64 // expected JobsLaunched / Iterations
	}{
		{JobSpec{Iterative: iterJob}, 1, 4},
		{JobSpec{Batch: &mapreduce.Job{
			Name: "route-batch", Input: []string{"/words"}, Output: "/out/route-batch",
			Map: func(key, value any, emit kv.Emit) error {
				for _, w := range strings.Fields(value.(string)) {
					emit(w, int64(1))
				}
				return nil
			},
			Reduce: func(key any, values []any, emit kv.Emit) error {
				emit(key, int64(len(values)))
				return nil
			},
			NumReduce: 1,
			Ops:       kv.OpsFor[string, int64](nil),
		}}, 1, 0},
		{JobSpec{Chain: &mapreduce.IterSpec{
			Name: "route-chain", Input: "/chain-init", WorkDir: "/work/route-chain",
			Map: func(key, value any, emit kv.Emit) error {
				emit(key, value)
				return nil
			},
			Reduce: func(key any, values []any, emit kv.Emit) error {
				emit(key, values[0])
				return nil
			},
			NumReduce: 1,
			Ops:       kv.OpsFor[int64, mapreduce.IterValue](nil),
			MaxIter:   3,
		}}, 3, 0}, // one MapReduce job per iteration
	}
	sets := make([]*metrics.Set, len(specs))
	recs := make([]*trace.Recorder, len(specs))
	handles := make([]*JobHandle, 0, len(specs)+1)
	for i, sp := range specs {
		sets[i], recs[i] = metrics.NewSet(), trace.NewRecorder(0)
		h, err := c.Submit(context.Background(), sp.spec, SubmitOptions{Metrics: sets[i], Trace: recs[i]})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	plain, err := c.Submit(context.Background(), JobSpec{Iterative: plainJob}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	handles = append(handles, plain)
	for i, h := range handles {
		if err := h.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}

	for i, sp := range specs {
		name := sp.spec.Name()
		if n := sets[i].Get(metrics.JobsLaunched); n != sp.jobs {
			t.Errorf("%s: private JobsLaunched = %d, want %d", name, n, sp.jobs)
		}
		if n := sets[i].Get(metrics.Iterations); n != sp.iter {
			t.Errorf("%s: private Iterations = %d, want %d", name, n, sp.iter)
		}
		if n := sets[i].Get(metrics.DFSWriteBytes); n != 0 {
			t.Errorf("%s: DFS writes leaked into the private set: %d bytes", name, n)
		}
		if recs[i].Len() == 0 {
			t.Errorf("%s: private recorder is empty", name)
		}
	}
	if n := c.Metrics.Get(metrics.JobsLaunched); n != 1 {
		t.Errorf("cluster JobsLaunched = %d, want 1 (the plain job only)", n)
	}
	if n := c.Metrics.Get(metrics.Iterations); n != 2 {
		t.Errorf("cluster Iterations = %d, want 2 (the plain job only)", n)
	}
	if c.Metrics.Get(metrics.DFSWriteBytes) == 0 {
		t.Error("cluster set saw no DFS writes")
	}
	var runStarts, iterDone int
	for _, ev := range clusterTrace.Events() {
		switch ev.Kind {
		case trace.KindRunStart:
			runStarts++
			if len(ev.Attrs) == 0 || ev.Attrs[0].Value != "route-plain" {
				t.Errorf("cluster recorder got another job's run start: %+v", ev)
			}
		case trace.KindIterDone:
			iterDone++
		case trace.SpanJobInit:
			t.Errorf("cluster recorder got a MapReduce job event: %+v", ev)
		}
	}
	if runStarts != 1 || iterDone != 2 {
		t.Errorf("cluster recorder: %d run starts, %d iterations; want 1 and 2", runStarts, iterDone)
	}
}

// TestSubmitDuplicateNameRejected: two active jobs cannot share a name
// (it namespaces endpoints, checkpoints, manifests).
func TestSubmitDuplicateNameRejected(t *testing.T) {
	c, err := NewCluster(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	seedHalveState(t, c)
	h, err := c.Submit(context.Background(), JobSpec{Iterative: halveJob("dup", 100000)}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(context.Background(), JobSpec{Iterative: halveJob("dup", 3)}, SubmitOptions{}); err == nil {
		t.Fatal("duplicate active name admitted")
	}
	h.Cancel()
	if err := h.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel err = %v", err)
	}
	if h.Status() != StatusCanceled {
		t.Fatalf("status %v", h.Status())
	}
	// The name frees once the first run is gone.
	h2, err := c.Submit(context.Background(), JobSpec{Iterative: halveJob("dup", 3)}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitValidation covers the admission errors of the unified entry
// point.
func TestSubmitValidation(t *testing.T) {
	c, err := NewCluster(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(context.Background(), JobSpec{}, SubmitOptions{}); err == nil {
		t.Fatal("empty spec admitted")
	}
	if _, err := c.Submit(context.Background(),
		JobSpec{Iterative: halveJob("x", 1), Batch: &batchJobForTest}, SubmitOptions{}); err == nil {
		t.Fatal("double spec admitted")
	}
	if _, err := c.Submit(context.Background(), JobSpec{Batch: &batchJobForTest},
		SubmitOptions{Resume: true}); err == nil {
		t.Fatal("Resume on a batch job admitted")
	}
	if _, err := c.Submit(context.Background(), JobSpec{Iterative: halveJob("", 1)}, SubmitOptions{}); err == nil {
		t.Fatal("nameless job admitted")
	}
}

var batchJobForTest = mapreduce.Job{Name: "b"}

// TestKillRunNoActive: KillRun with nothing running returns the typed
// ErrNoActiveRun, which wraps core.ErrKilled.
func TestKillRunNoActive(t *testing.T) {
	c, err := NewCluster(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = c.KillRun()
	if !errors.Is(err, ErrNoActiveRun) {
		t.Fatalf("err = %v, want ErrNoActiveRun", err)
	}
	if !errors.Is(err, core.ErrKilled) {
		t.Fatalf("ErrNoActiveRun does not wrap core.ErrKilled: %v", err)
	}
}

// TestSubmitWaitCtxExpiry: Wait's ctx expiring does not finish the job.
func TestSubmitWaitCtxExpiry(t *testing.T) {
	c, err := NewCluster(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	seedHalveState(t, c)
	h, err := c.Submit(context.Background(), JobSpec{Iterative: halveJob("waitctx", 100000)}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := h.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if st := h.Status(); st != StatusRunning {
		t.Fatalf("job finished with the waiter's ctx: %v", st)
	}
	h.Cancel()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ { // Wait is safe from many goroutines
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := h.Wait(context.Background()); !errors.Is(err, context.Canceled) {
				t.Errorf("wait err = %v", err)
			}
		}()
	}
	wg.Wait()
}
