package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"time"
)

// quantile returns the nearest-rank p-quantile of xs.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder is the fixed set of percentiles a tail may be reported at.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999}

// tailQuantile picks the highest ladder percentile that leaves at least
// ten of n samples beyond it. Workloads pass the sample count they are
// guaranteed to reach, not the count a run happened to reach, so the
// percentile a workload reports never changes from run to run.
func tailQuantile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n-int(math.Ceil(p*float64(n))) >= 10 {
			best = p
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// poll calls fn now and then every interval until the returned stop
// function is called; stop returns once the polling goroutine has
// exited, so fn's writes are visible to the caller afterwards.
func poll(interval time.Duration, fn func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			fn()
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// startHeapSampler polls the live Go heap and returns a function that
// stops polling and reports the peak in MiB. Live bytes are what the
// last GC cycle marked reachable, so the peak does not depend on where
// between two collections a sample fell.
func startHeapSampler() (peakMB func() float64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	stop := poll(5*time.Millisecond, func() {
		metrics.Read(s)
		peak = max(peak, s[0].Value.Uint64())
	})
	return func() float64 {
		stop()
		return float64(peak) / (1 << 20)
	}
}

// boxInfo describes the machine a result was measured on.
func boxInfo() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model)
}
