package mapreduce

import (
	"context"
	"fmt"
	"strings"
	"time"

	"imapreduce/internal/kv"
	"imapreduce/internal/trace"
)

// IterSpec describes an iterative algorithm implemented the Hadoop way
// (paper §2): a driver program submits one MapReduce job per iteration
// whose records carry state and static data together, plus — when a
// distance threshold is set — an extra MapReduce job after each
// iteration that measures the difference between consecutive outputs and
// lets the client test convergence.
type IterSpec struct {
	Name string
	// Input is the initial combined-record file (values are IterValue).
	Input string
	// WorkDir receives per-iteration outputs (WorkDir/iter-<i>).
	WorkDir string

	Map       MapFunc
	Combine   ReduceFunc
	Reduce    ReduceFunc
	NumReduce int
	Ops       kv.Ops

	// MaxIter bounds the iteration count (0 means no bound; then
	// DistThreshold must be positive).
	MaxIter int
	// DistThreshold terminates when the summed Distance between two
	// consecutive iterations drops below it; 0 disables the check jobs.
	DistThreshold float64
	// Distance compares a key's previous and current output values.
	Distance func(key, prev, curr any) float64

	// KeepOutputs retains every iteration's output instead of deleting
	// all but the last two.
	KeepOutputs bool
}

// IterStats records one iteration of the chain.
type IterStats struct {
	Iteration int
	// JobWall/JobInit are the iteration job's total and initialization
	// times; CheckWall/CheckInit the convergence-check job's (zero when
	// no check ran).
	JobWall, JobInit     time.Duration
	CheckWall, CheckInit time.Duration
	// CumulativeWall is total elapsed through this iteration;
	// CumulativeExInit excludes all initialization time — the paper's
	// "MapReduce (ex. init.)" curve.
	CumulativeWall, CumulativeExInit time.Duration
	// Distance is the measured inter-iteration distance (NaN-free: -1
	// when no check ran).
	Distance float64
	// ShuffleBytes is the iteration job's map→reduce volume.
	ShuffleBytes int64
}

// IterResult is the chain outcome.
type IterResult struct {
	Iterations int
	Stats      []IterStats
	OutputPath string
	Converged  bool
	TotalWall  time.Duration
}

// RunIterativeCtx executes the chained-jobs pattern on e: one job per
// iteration plus convergence-check jobs, driven from the client. A done
// ctx aborts the chain between (and inside) its constituent jobs, and
// the returned error wraps ctx's cause.
func RunIterativeCtx(ctx context.Context, e *Engine, spec IterSpec) (*IterResult, error) {
	if spec.MaxIter <= 0 && spec.DistThreshold <= 0 {
		return nil, fmt.Errorf("mapreduce: iterative %s needs MaxIter or DistThreshold", spec.Name)
	}
	if spec.DistThreshold > 0 && spec.Distance == nil {
		return nil, fmt.Errorf("mapreduce: iterative %s has DistThreshold but no Distance", spec.Name)
	}
	res := &IterResult{}
	cur := spec.Input
	var cum, cumExInit time.Duration
	for i := 1; spec.MaxIter <= 0 || i <= spec.MaxIter; i++ {
		out := fmt.Sprintf("%s/iter-%03d", spec.WorkDir, i)
		job := &Job{
			Name:      fmt.Sprintf("%s-iter-%03d", spec.Name, i),
			Input:     []string{cur},
			Output:    out,
			Map:       spec.Map,
			Combine:   spec.Combine,
			Reduce:    spec.Reduce,
			NumReduce: spec.NumReduce,
			Ops:       spec.Ops,
		}
		jr, err := e.SubmitCtx(ctx, job)
		if err != nil {
			return nil, err
		}
		st := IterStats{
			Iteration:    i,
			JobWall:      jr.Wall,
			JobInit:      jr.Init,
			Distance:     -1,
			ShuffleBytes: jr.ShuffleBytes,
		}

		converged := false
		if spec.DistThreshold > 0 && i >= 2 {
			prev := fmt.Sprintf("%s/iter-%03d", spec.WorkDir, i-1)
			dist, cw, ci, err := e.runDistanceJob(ctx, spec, prev, out, i)
			if err != nil {
				return nil, err
			}
			st.CheckWall, st.CheckInit = cw, ci
			st.Distance = dist
			converged = dist < spec.DistThreshold
		}

		cum += st.JobWall + st.CheckWall
		cumExInit += (st.JobWall - st.JobInit) + (st.CheckWall - st.CheckInit)
		st.CumulativeWall, st.CumulativeExInit = cum, cumExInit
		res.Stats = append(res.Stats, st)
		res.Iterations = i
		e.opts.Trace.Emit(trace.KindIterDone, "driver", -1, i)

		if !spec.KeepOutputs && i >= 3 {
			// iter-(i-1) is still needed as "prev" for the next check;
			// anything older can go.
			e.deleteOutput(fmt.Sprintf("%s/iter-%03d", spec.WorkDir, i-2))
		}
		cur = out
		if converged {
			res.Converged = true
			break
		}
	}
	res.OutputPath = cur
	res.TotalWall = cum
	return res, nil
}

// runDistanceJob launches the extra convergence-check MapReduce job: it
// reads the previous and current outputs, tags records by source file,
// joins them by key in reduce, and emits per-key distances that the
// driver sums at the client.
func (e *Engine) runDistanceJob(ctx context.Context, spec IterSpec, prevDir, curDir string, iter int) (float64, time.Duration, time.Duration, error) {
	inputs := append(e.fs.List(prevDir+"/"), e.fs.List(curDir+"/")...)
	if len(inputs) == 0 {
		return 0, 0, 0, fmt.Errorf("mapreduce: no outputs to compare under %s and %s", prevDir, curDir)
	}
	checkOut := fmt.Sprintf("%s/check-%03d", spec.WorkDir, iter)
	job := &Job{
		Name:   fmt.Sprintf("%s-check-%03d", spec.Name, iter),
		Input:  inputs,
		Output: checkOut,
		MapSrc: func(path string, key, value any, emit kv.Emit) error {
			src := 1
			if strings.HasPrefix(path, prevDir+"/") {
				src = 0
			}
			emit(key, Tagged{Src: src, Val: value})
			return nil
		},
		Reduce: func(key any, values []any, emit kv.Emit) error {
			var prev, cur any
			havePrev, haveCur := false, false
			for _, v := range values {
				t, ok := v.(Tagged)
				if !ok {
					return fmt.Errorf("distance job: unexpected value %T", v)
				}
				if t.Src == 0 {
					prev, havePrev = t.Val, true
				} else {
					cur, haveCur = t.Val, true
				}
			}
			if !havePrev || !haveCur {
				// Key present in only one iteration: treat as unchanged;
				// graph algorithms emit every key every iteration.
				return nil
			}
			if d := spec.Distance(key, prev, cur); d != 0 {
				emit(key, d)
			}
			return nil
		},
		NumReduce: spec.NumReduce,
		Ops:       spec.Ops,
	}
	jr, err := e.SubmitCtx(ctx, job)
	if err != nil {
		return 0, 0, 0, err
	}
	var dist float64
	for _, part := range e.fs.List(checkOut + "/") {
		recs, err := e.fs.ReadFile(part, e.spec.IDs()[0])
		if err != nil {
			return 0, 0, 0, err
		}
		for _, r := range recs {
			dist += r.Value.(float64)
		}
	}
	e.deleteOutput(checkOut)
	return dist, jr.Wall, jr.Init, nil
}

func (e *Engine) deleteOutput(dir string) {
	for _, p := range e.fs.List(dir + "/") {
		e.fs.Delete(p)
	}
}
