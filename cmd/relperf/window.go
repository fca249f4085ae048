package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The machines this benchmark runs on share cores with other tenants, and
// their speed drifts by tens of percent over seconds to minutes. Timings
// are therefore medians over many short units (requests of one document,
// rounds of requests, jobs, passes, one-second slices), so a burst of
// interference spoils the units it covers, not the whole window. CPU per
// operation, which interference barely inflates, is a whole-window total
// so that garbage collection is charged evenly to every operation.

// opRec is one completed operation: when it finished, counted from the
// window's start, how long it took, and which client sent which
// document in it.
type opRec struct {
	at, lat     time.Duration
	client, doc int
}

// procSample is one reading of the measured process at a slice boundary.
type procSample struct {
	at   time.Duration
	cpu  time.Duration
	rss  float64 // MiB
	work float64 // cumulative operations, in the workload's unit
}

// window is one measured load window.
type window struct {
	mu      sync.Mutex
	start   time.Time
	every   time.Duration // slice length
	ops     []opRec
	samples []procSample
}

// record notes one completed operation; load goroutines call it.
func (w *window) record(lat time.Duration, client, doc int) {
	w.mu.Lock()
	w.ops = append(w.ops, opRec{at: time.Since(w.start), lat: lat, client: client, doc: doc})
	w.mu.Unlock()
}

// done counts the operations recorded so far.
func (w *window) done() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return float64(len(w.ops))
}

// measure runs load until d has elapsed, reading pid's CPU time and
// resident set, and work() (cumulative operations), at every slice
// boundary: each second, or each tenth of a window shorter than ten
// seconds. load must return once the deadline has passed.
func measure(pid int, d time.Duration, work func(w *window) float64, load func(w *window, deadline time.Time)) (*window, error) {
	w := &window{start: time.Now(), every: min(time.Second, d/10)}
	sample := func() error {
		cpu, err := procCPU(pid)
		if err != nil {
			return err
		}
		rss, err := procRSS(pid)
		if err != nil {
			return err
		}
		s := procSample{at: time.Since(w.start), cpu: cpu, rss: rss, work: work(w)}
		w.mu.Lock()
		w.samples = append(w.samples, s)
		w.mu.Unlock()
		return nil
	}
	if err := sample(); err != nil {
		return nil, err
	}
	deadline := w.start.Add(d)
	stop := make(chan struct{})
	sampled := make(chan error, 1)
	go func() {
		tick := time.NewTicker(w.every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- nil
				return
			case <-tick.C:
				if err := sample(); err != nil {
					sampled <- err
					return
				}
			}
		}
	}()
	load(w, deadline)
	close(stop)
	if err := <-sampled; err != nil {
		return nil, err
	}
	return w, sample()
}

// sliceStats are the per-slice values of a window.
type sliceStats struct {
	throughput, rss []float64
}

// slices computes each complete slice's throughput (work per second)
// and resident set (MiB).
func (w *window) slices() sliceStats {
	var st sliceStats
	for i := 1; i < len(w.samples); i++ {
		a, b := w.samples[i-1], w.samples[i]
		if b.at-a.at < w.every/2 {
			continue // the short tail after the last tick
		}
		st.throughput = append(st.throughput, (b.work-a.work)/(b.at-a.at).Seconds())
		st.rss = append(st.rss, b.rss)
	}
	return st
}

// cpuPerOp is the measured process's CPU time over the whole window per
// unit of work, in ms.
func (w *window) cpuPerOp() float64 {
	a, b := w.samples[0], w.samples[len(w.samples)-1]
	return float64((b.cpu - a.cpu).Microseconds()) / 1000 / (b.work - a.work)
}

// docLatency is the mean over documents of each document's median
// latency, in ms: the latency of a request that picks every document
// equally often. A median over the whole mix would instead jump between
// documents whose solve times differ tenfold as the mix shifts.
func (w *window) docLatency() float64 {
	byDoc := map[int][]time.Duration{}
	for _, o := range w.ops {
		byDoc[o.doc] = append(byDoc[o.doc], o.lat)
	}
	var sum float64
	for _, lats := range byDoc {
		sum += quantile(millis(lats), 0.5)
	}
	return sum / float64(len(byDoc))
}

// roundThroughput is operations per second from the median time a client
// takes for one round of ndocs consecutive requests, which covers every
// document once: a slice of a second holds too few slow requests for its
// count not to depend on which documents it caught. The load runs whole
// rounds, the first starting with the window.
func (w *window) roundThroughput(clients, ndocs int) float64 {
	ops := append([]opRec(nil), w.ops...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	var rounds []float64
	last := map[int]time.Duration{}
	count := map[int]int{}
	for _, o := range ops {
		if count[o.client]++; count[o.client]%ndocs == 0 {
			rounds = append(rounds, (o.at - last[o.client]).Seconds())
			last[o.client] = o.at
		}
	}
	return float64(clients*ndocs) / median(rounds)
}

// procRSS returns a process's current resident set (VmRSS) in MiB.
func procRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("relperf: no VmRSS in /proc/%d/status", pid)
}
