package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/dfs"
	"imapreduce/internal/leaktest"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

// lifecycleOpts runs every setup-failure case with a pair-loop pool of
// 4: the pool starts its goroutines whatever GOMAXPROCS is, so a run
// that skips its release leaks them on any box.
var lifecycleOpts = Options{Parallelism: 4, Timeout: 10 * time.Second}

// tcpEngineEnv is an in-process engine over real loopback sockets; on
// TCP an endpoint left open is a live listener goroutine the leak check
// sees. The network closes only after the check has run.
func tcpEngineEnv(t *testing.T) *env {
	t.Helper()
	spec := cluster.Uniform(3)
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2}, spec.IDs(), m)
	net := transport.NewTCPNetwork()
	t.Cleanup(func() { net.Close() })
	e, err := NewEngine(fs, net, spec, m, lifecycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	v := &env{e: e, fs: fs, m: m, spec: spec}
	v.writeState(t, "/state", 12)
	return v
}

// remoteDriftEnv is a master with one registered worker whose registry
// builds a two-phase job under the key the master ships a one-phase job
// as, so the worker rejects the plan.
func remoteDriftEnv(t *testing.T) *env {
	t.Helper()
	spec := cluster.Uniform(1)
	m := metrics.NewSet()
	fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 1}, spec.IDs(), m)
	dir := transport.NewDirectory()
	net := transport.NewTCPNetworkOpts(transport.TCPOptions{Resolver: dir.Resolve})
	t.Cleanup(func() { net.Close() })
	rc, err := NewRemoteCluster(net, dir, RemoteClusterOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	hp, _ := net.ListenAddr(CtlMasterAddr)
	host, err := NewWorkerHost(WorkerHostOptions{
		ID:         spec.IDs()[0],
		MasterAddr: hp,
		Build: func(string, map[string]string) (*Job, error) {
			j := halvingJob("lc-drift", 3, 0)
			j.AddSuccessor(halvingJob("lc-drift-2", 3, 0))
			return j, nil
		},
		PingInterval: 20 * time.Millisecond,
		JoinBackoff:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = host.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if _, err := rc.WaitForWorkers(wctx, 1); err != nil {
		t.Fatal(err)
	}
	// The master admits the worker before it sends the join ack; wait
	// until the ack (carrying the worker's own control address) landed,
	// so the control connections exist before the leak check starts.
	for {
		if _, ok := host.dir.Resolve(ctlAddr(host.opts.ID)); ok {
			break
		}
		select {
		case <-wctx.Done():
			t.Fatal("worker never saw its join ack")
		case <-time.After(time.Millisecond):
		}
	}
	e, err := NewEngine(fs, net, spec, m, lifecycleOpts)
	if err != nil {
		t.Fatal(err)
	}
	e.AttachRemote(rc)
	v := &env{e: e, fs: fs, m: m, spec: spec}
	v.writeState(t, "/state", 12)
	return v
}

// staticFailHost is a worker host (never joined: plans are applied
// directly) in front of a master-side DFS service that has no static
// partitions, with both DFS connections already dialed.
func staticFailHost(t *testing.T) *WorkerHost {
	t.Helper()
	spec := cluster.Uniform(1)
	fs := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 1}, spec.IDs(), nil)
	dir := transport.NewDirectory()
	net := transport.NewTCPNetworkOpts(transport.TCPOptions{Resolver: dir.Resolve})
	fsEp, err := net.Endpoint(DFSAddr)
	if err != nil {
		t.Fatal(err)
	}
	svc := dfs.Serve(fs, fsEp)
	t.Cleanup(func() { net.Close(); svc.Wait() })
	host, err := NewWorkerHost(WorkerHostOptions{
		ID:         spec.IDs()[0],
		MasterAddr: "127.0.0.1:1", // never contacted
		Build: func(string, map[string]string) (*Job, error) {
			j := halvingJob("lc-host", 3, 0)
			j.StaticPath = "/static" // the master never partitioned it
			return j, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(host.Terminate)
	dfsHP, _ := net.ListenAddr(DFSAddr)
	clientHP, _ := host.net.ListenAddr(dfsClientAddr(host.opts.ID))
	host.dir.Set(DFSAddr, dfsHP)
	dir.Set(dfsClientAddr(host.opts.ID), clientHP)
	host.fs.Exists("/") // dial both directions before the leak check
	return host
}

// TestSetupFailureReleasesRun fails run setup in each way it can fail,
// over TCP with a pool of 4, and checks that the failed run released
// everything it acquired: every endpoint it opened, its pool workers,
// and any task goroutine already started.
func TestSetupFailureReleasesRun(t *testing.T) {
	cases := []struct {
		name string
		want string // substring of the setup error
		// setup builds what outlives the check and returns the failing
		// action the check watches.
		setup func(t *testing.T) func() error
	}{
		{"resume-no-manifest", "no durable checkpoint manifest", func(t *testing.T) func() error {
			v := tcpEngineEnv(t)
			return func() error {
				_, err := v.e.Resume(halvingJob("lc-nomanifest", 4, 0))
				return err
			}
		}},
		{"resume-fingerprint-mismatch", "different job definition", func(t *testing.T) func() error {
			v := tcpEngineEnv(t)
			job := halvingJob("lc-fp", 4, 0)
			job.CheckpointEvery = 2
			if _, err := v.e.Run(job); err != nil {
				t.Fatal(err)
			}
			return func() error {
				alt := halvingJob("lc-fp", 7, 0)
				alt.CheckpointEvery = 2
				_, err := v.e.Resume(alt)
				return err
			}
		}},
		{"missing-static-path", "static init", func(t *testing.T) func() error {
			v := tcpEngineEnv(t)
			return func() error {
				job := halvingJob("lc-static", 4, 0)
				job.StaticPath = "/no-such-static"
				_, err := v.e.Run(job)
				return err
			}
		}},
		{"missing-state-path", "state init", func(t *testing.T) func() error {
			v := tcpEngineEnv(t)
			return func() error {
				job := halvingJob("lc-state", 4, 0)
				job.StatePath = "/no-such-state"
				_, err := v.e.Run(job)
				return err
			}
		}},
		{"remote-plan-rejected", "registry drift", func(t *testing.T) func() error {
			v := remoteDriftEnv(t)
			return func() error {
				job := halvingJob("lc-drift", 3, 0)
				job.Registry = "halve"
				_, err := v.e.Run(job)
				if _, open := v.e.net.(*transport.TCPNetwork).ListenAddr(masterAddr(job.Name)); open {
					t.Error("master endpoint still open after the failed run")
				}
				return err
			}
		}},
		{"host-static-load", "load static", func(t *testing.T) func() error {
			host := staticFailHost(t)
			return func() error {
				ack := host.applyPlan(planMsg{
					Epoch:  1,
					JobKey: "halve",
					Spec:   cluster.Uniform(1),
					Tuning: workerTuning{Timeout: lifecycleOpts.Timeout, Parallelism: lifecycleOpts.Parallelism},
					Run: runMeta{
						Name: "lc-host", MainPhases: 1, MainTasks: 2, OutputPath: "/out",
						Placement: []string{host.opts.ID, host.opts.ID},
					},
					Assigns: []PairAssign{{Idx: 0}, {Idx: 1}},
				})
				host.teardownRun()
				if ack.Err == "" {
					return nil
				}
				return errors.New(ack.Err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			guard(t, time.Minute)
			act := tc.setup(t)
			check := leaktest.Check(t)
			err := act()
			check()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("setup error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
