package imr

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
	"imapreduce/internal/mapreduce"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

// result submits spec and blocks on its handle — the shape every
// assertion below is written against.
func result(ctx context.Context, c *Cluster, spec JobSpec, opts SubmitOptions) (*JobResult, error) {
	h, err := c.Submit(ctx, spec, opts)
	if err != nil {
		return nil, err
	}
	return h.Result()
}

func TestBatchJob(t *testing.T) {
	c, err := NewCluster(Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	recs := []kv.Pair{
		{Key: int64(0), Value: "a b a"},
		{Key: int64(1), Value: "b c"},
	}
	if err := c.Write("/in", recs, kv.OpsFor[int64, string](nil)); err != nil {
		t.Fatal(err)
	}
	r, err := result(context.Background(), c, JobSpec{Batch: &mapreduce.Job{
		Name: "wc", Input: []string{"/in"}, Output: "/out",
		Map: func(key, value any, emit kv.Emit) error {
			for _, w := range strings.Fields(value.(string)) {
				emit(w, int64(1))
			}
			return nil
		},
		Reduce: func(key any, values []any, emit kv.Emit) error {
			var n int64
			for _, v := range values {
				n += v.(int64)
			}
			emit(key, n)
			return nil
		},
		NumReduce: 2,
		Ops:       kv.OpsFor[string, int64](nil),
	}}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res := r.Batch; res.OutputRecords != 3 {
		t.Fatalf("output records = %d", res.OutputRecords)
	}
	out, err := c.ReadAll("/out")
	if err != nil {
		t.Fatal(err)
	}
	if out["a"] != int64(2) || out["b"] != int64(2) || out["c"] != int64(1) {
		t.Fatalf("counts: %v", out)
	}
}

func TestIterativeJob(t *testing.T) {
	c, err := NewCluster(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var recs []kv.Pair
	for i := 0; i < 12; i++ {
		recs = append(recs, kv.Pair{Key: int64(i), Value: 1.0})
	}
	if err := c.Write("/state", recs, kv.OpsFor[int64, float64](nil)); err != nil {
		t.Fatal(err)
	}
	r, err := result(context.Background(), c, JobSpec{Iterative: &core.Job{
		Name: "halve", StatePath: "/state", MaxIter: 5,
		Map: func(key, state, static any, emit kv.Emit) error {
			emit(key, state)
			return nil
		},
		Reduce: func(key any, states []any) (any, error) {
			return states[0].(float64) / 2, nil
		},
		Ops: kv.OpsFor[int64, float64](nil),
	}}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.ReadAll(r.Iterative.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range out {
		if math.Abs(v.(float64)-1.0/32) > 1e-12 {
			t.Fatalf("key %v = %v", k, v)
		}
	}
}

func TestJobChain(t *testing.T) {
	c, err := NewCluster(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var recs []kv.Pair
	for i := 0; i < 6; i++ {
		recs = append(recs, kv.Pair{Key: int64(i), Value: mapreduce.IterValue{State: 1.0}})
	}
	if err := c.Write("/init", recs, kv.OpsFor[int64, mapreduce.IterValue](nil)); err != nil {
		t.Fatal(err)
	}
	r, err := result(context.Background(), c, JobSpec{Chain: &mapreduce.IterSpec{
		Name: "chain", Input: "/init", WorkDir: "/work",
		Map: func(key, value any, emit kv.Emit) error {
			emit(key, value)
			return nil
		},
		Reduce: func(key any, values []any, emit kv.Emit) error {
			v := values[0].(mapreduce.IterValue)
			emit(key, mapreduce.IterValue{State: v.State.(float64) * 2})
			return nil
		},
		NumReduce: 2,
		Ops:       kv.OpsFor[int64, mapreduce.IterValue](nil),
		MaxIter:   3,
	}}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := r.Chain
	if res.Iterations != 3 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	out, err := c.ReadAll(res.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range out {
		if v.(mapreduce.IterValue).State.(float64) != 8 {
			t.Fatalf("key %v = %v", k, v)
		}
	}
}

func TestOptionsPlumbing(t *testing.T) {
	m := metrics.NewSet()
	c, err := NewCluster(Options{
		Workers: 5,
		TCP:     true,
		DFS:     &dfs.Config{BlockSize: 1 << 10, Replication: 2},
		Core:    &core.Options{Timeout: 7 * time.Second},
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Spec.Nodes) != 5 {
		t.Fatalf("workers: %d", len(c.Spec.Nodes))
	}
	if c.Metrics != m {
		t.Fatal("metrics not plumbed")
	}
	if c.MapReduceEngine() == nil || c.CoreEngine() == nil {
		t.Fatal("engines missing")
	}
	if err := c.FailWorker("worker-0"); err == nil {
		t.Fatal("FailWorker with no active run should error")
	}
}

// TestNetworkOverrideAndStall runs an iterative job through the facade
// over a duplicating FaultyNetwork, with heartbeats on and a short
// undetected stall injected mid-run via the passthrough.
func TestNetworkOverrideAndStall(t *testing.T) {
	fnet := transport.NewFaultyNetwork(transport.NewChanNetwork(),
		transport.FaultyOptions{Seed: 5, DupRate: 0.1})
	c, err := NewCluster(Options{
		Workers: 2,
		Network: fnet,
		Core: &core.Options{
			Timeout:           20 * time.Second,
			HeartbeatInterval: 10 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var recs []kv.Pair
	for i := 0; i < 12; i++ {
		recs = append(recs, kv.Pair{Key: int64(i), Value: 1.0})
	}
	if err := c.Write("/state", recs, kv.OpsFor[int64, float64](nil)); err != nil {
		t.Fatal(err)
	}
	// A stall shorter than the detection window: the run just rides it
	// out; nothing may be lost or double-applied.
	time.AfterFunc(5*time.Millisecond, func() { c.StallWorker("worker-1", 15*time.Millisecond) })
	r, err := result(context.Background(), c, JobSpec{Iterative: &core.Job{
		Name: "halve-faulty", StatePath: "/state", MaxIter: 8, CheckpointEvery: 2,
		Map: func(key, state, static any, emit kv.Emit) error {
			emit(key, state)
			return nil
		},
		Reduce: func(key any, states []any) (any, error) {
			time.Sleep(500 * time.Microsecond)
			return states[0].(float64) / 2, nil
		},
		Ops: kv.OpsFor[int64, float64](nil),
	}}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.ReadAll(r.Iterative.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 12 {
		t.Fatalf("%d outputs", len(out))
	}
	for k, v := range out {
		if math.Abs(v.(float64)-1.0/256) > 1e-12 {
			t.Fatalf("key %v = %v", k, v)
		}
	}
	if fnet.Dups() == 0 {
		t.Fatal("faulty network not in the path")
	}
}

func TestReadAllMissing(t *testing.T) {
	c, err := NewCluster(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAll("/nope"); err == nil {
		t.Fatal("expected error")
	}
	// Single-file (non-directory) read works too.
	if err := c.Write("/single", []kv.Pair{{Key: int64(1), Value: 2.0}}, kv.OpsFor[int64, float64](nil)); err != nil {
		t.Fatal(err)
	}
	out, err := c.ReadAll("/single")
	if err != nil || out[int64(1)] != 2.0 {
		t.Fatalf("single read: %v %v", out, err)
	}
}

func TestReadAllAsTyped(t *testing.T) {
	c, err := NewCluster(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs := []kv.Pair{{Key: int64(1), Value: 0.5}, {Key: int64(2), Value: 0.25}}
	if err := c.Write("/typed", recs, kv.OpsFor[int64, float64](nil)); err != nil {
		t.Fatal(err)
	}
	out, err := ReadAllAs[int64, float64](c, "/typed")
	if err != nil {
		t.Fatal(err)
	}
	if out[1] != 0.5 || out[2] != 0.25 {
		t.Fatalf("typed read: %v", out)
	}
	// Wrong type parameters fail loudly, not with a zero value.
	if _, err := ReadAllAs[string, float64](c, "/typed"); err == nil {
		t.Fatal("key type mismatch accepted")
	}
	if _, err := ReadAllAs[int64, string](c, "/typed"); err == nil {
		t.Fatal("value type mismatch accepted")
	}
}

func TestReadAllConflictingParts(t *testing.T) {
	c, err := NewCluster(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ops := kv.OpsFor[int64, float64](nil)
	if err := c.Write("/dup/part-0", []kv.Pair{{Key: int64(1), Value: 1.0}}, ops); err != nil {
		t.Fatal(err)
	}
	// Same key, same value in another part file: fine (replicated output).
	if err := c.Write("/dup/part-1", []kv.Pair{{Key: int64(1), Value: 1.0}}, ops); err != nil {
		t.Fatal(err)
	}
	if out, err := c.ReadAll("/dup"); err != nil || out[int64(1)] != 1.0 {
		t.Fatalf("equal duplicates rejected: %v %v", out, err)
	}
	// Same key, different value: an error, not a silent overwrite.
	if err := c.Write("/dup/part-2", []kv.Pair{{Key: int64(1), Value: 2.0}}, ops); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAll("/dup"); err == nil || !strings.Contains(err.Error(), "conflicting") {
		t.Fatalf("conflict not reported: %v", err)
	}
}

func halveJob(name string, maxIter int) *core.Job {
	return &core.Job{
		Name: name, StatePath: "/state", MaxIter: maxIter,
		Map: func(key, state, static any, emit kv.Emit) error {
			emit(key, state)
			return nil
		},
		Reduce: func(key any, states []any) (any, error) {
			time.Sleep(200 * time.Microsecond)
			return states[0].(float64) / 2, nil
		},
		Ops: kv.OpsFor[int64, float64](nil),
	}
}

func TestRunIterativeCtxCancel(t *testing.T) {
	c, err := NewCluster(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var recs []kv.Pair
	for i := 0; i < 12; i++ {
		recs = append(recs, kv.Pair{Key: int64(i), Value: 1.0})
	}
	if err := c.Write("/state", recs, kv.OpsFor[int64, float64](nil)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := result(ctx, c, JobSpec{Iterative: halveJob("canceled", 100000)}, SubmitOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The engine must be reusable after a canceled run.
	ctx2, cancel2 := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel2)
	if _, err := result(ctx2, c, JobSpec{Iterative: halveJob("canceled-midway", 100000)}, SubmitOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: want context.Canceled, got %v", err)
	}
	if r, err := result(context.Background(), c, JobSpec{Iterative: halveJob("clean", 3)}, SubmitOptions{}); err != nil || r.Iterative.Iterations != 3 {
		t.Fatalf("engine not reusable after cancel: %v %v", r, err)
	}
}

func TestRunJobCtxCancel(t *testing.T) {
	c, err := NewCluster(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write("/in", []kv.Pair{{Key: int64(0), Value: "a b"}}, kv.OpsFor[int64, string](nil)); err != nil {
		t.Fatal(err)
	}
	job := &mapreduce.Job{
		Name: "wc-canceled", Input: []string{"/in"}, Output: "/out",
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
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := result(ctx, c, JobSpec{Batch: job}, SubmitOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if r, err := result(context.Background(), c, JobSpec{Batch: job}, SubmitOptions{}); err != nil || r.Batch.OutputRecords != 2 {
		t.Fatalf("engine not reusable after cancel: %v %v", r, err)
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	empty := cluster.Spec{} // no nodes, no slots
	if _, err := NewCluster(Options{Spec: &empty}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestKillRunAndResumeIterative exercises the facade's durable-recovery
// surface: kill the active run mid-flight, then resume from the newest
// durable checkpoint manifest and finish with the exact result.
func TestKillRunAndResumeIterative(t *testing.T) {
	c, err := NewCluster(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var recs []kv.Pair
	for i := 0; i < 12; i++ {
		recs = append(recs, kv.Pair{Key: int64(i), Value: 1.0})
	}
	if err := c.Write("/state", recs, kv.OpsFor[int64, float64](nil)); err != nil {
		t.Fatal(err)
	}

	const maxIter = 20
	job := halveJob("killed", maxIter)
	job.CheckpointEvery = 2
	go func() {
		deadline := time.After(5 * time.Second)
		for {
			select {
			case <-deadline:
				return
			default:
			}
			if c.KillRun() == nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	if _, err := result(context.Background(), c, JobSpec{Iterative: job}, SubmitOptions{}); !errors.Is(err, core.ErrKilled) {
		t.Fatalf("want core.ErrKilled, got %v", err)
	}

	job2 := halveJob("killed", maxIter)
	job2.CheckpointEvery = 2
	r, err := result(context.Background(), c, JobSpec{Iterative: job2}, SubmitOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	res := r.Iterative
	if res.Iterations != maxIter {
		t.Fatalf("resumed iterations = %d, want %d", res.Iterations, maxIter)
	}
	out, err := ReadAllAs[int64, float64](c, res.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(2, -maxIter)
	for k, v := range out {
		if v != want {
			t.Fatalf("key %d = %v, want %v", k, v, want)
		}
	}
	if len(out) != 12 {
		t.Fatalf("output keys = %d, want 12", len(out))
	}
}
