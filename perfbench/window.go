package main

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// window is the length of the sub-windows a measured phase is split
// into. The throughput, CPU and latency metrics are means over the
// windows and the memory metric is the median over them (see summarise).
const window = time.Second / 2

// sample is one reading of the serving process at a window boundary.
type sample struct {
	cpu   time.Duration // user + system CPU used so far
	rssMB float64       // resident high-water mark since the previous reading
}

// processSampler returns a function that reads process proc ("self" or a
// pid): its CPU clock, from cpu, and its resident high-water mark, which
// it then resets to the current resident size so that the next reading
// covers one window only.
func processSampler(proc string, cpu func() (time.Duration, error)) func() (sample, error) {
	return func() (sample, error) {
		c, err := cpu()
		if err != nil {
			return sample{}, err
		}
		rss, err := peakRSSMB(proc)
		if err != nil {
			return sample{}, err
		}
		if err := os.WriteFile("/proc/"+proc+"/clear_refs", []byte("5"), 0); err != nil {
			return sample{}, fmt.Errorf("reset resident high-water mark: %w", err)
		}
		return sample{c, rss}, nil
	}
}

// windowStat summarises one window of a measured phase.
type windowStat struct {
	n             int           // requests completed in the window
	cpu           time.Duration // serving process CPU used in the window
	rssMB         float64       // serving process resident high-water mark
	p50, p90, p99 float64       // latency percentiles, us
}

// recorder collects a measured phase window by window. Clients add the
// latency of each completed request; at every window boundary a
// goroutine reads the serving process, summarises the window and reuses
// its latency buffer. Its memory therefore stops growing after the first
// windows: in process it shares the heap, and so the resident set that
// peak_rss_mb measures, with the system under test.
type recorder struct {
	mu     sync.Mutex
	open   []time.Duration // latencies of the window in progress
	closed bool            // the last window has closed
	start  sample          // reading at the start of the phase
	stats  []windowStat
	err    error
	done   chan struct{}
}

// startRecorder reads the serving process now, at epoch, and then at the
// end of each of the phase's windows. Requests added after the last
// window has closed (in flight when the phase ended) are left out.
func startRecorder(epoch time.Time, windows int, read func() (sample, error)) *recorder {
	r := &recorder{done: make(chan struct{})}
	r.start, r.err = read()
	go func() {
		defer close(r.done)
		prev, spare := r.start, []time.Duration(nil)
		for k := 1; k <= windows && r.err == nil; k++ {
			time.Sleep(time.Until(epoch.Add(time.Duration(k) * window)))
			var s sample
			if s, r.err = read(); r.err != nil {
				break
			}
			r.mu.Lock()
			lats := r.open
			r.open = spare[:0]
			r.mu.Unlock()
			st := windowStat{n: len(lats), cpu: s.cpu - prev.cpu, rssMB: s.rssMB}
			if len(lats) > 0 {
				slices.Sort(lats)
				st.p50, st.p90, st.p99 = pctSorted(lats, 0.50), pctSorted(lats, 0.90), pctSorted(lats, 0.99)
			}
			r.stats = append(r.stats, st)
			prev, spare = s, lats
		}
		r.mu.Lock()
		r.closed = true
		r.mu.Unlock()
	}()
	return r
}

// add records one completed request.
func (r *recorder) add(lat time.Duration) {
	r.mu.Lock()
	if !r.closed {
		r.open = append(r.open, lat)
	}
	r.mu.Unlock()
}

// wait returns the window summaries once the last window has closed.
func (r *recorder) wait() ([]windowStat, error) {
	<-r.done
	return r.stats, r.err
}

// phaseStats summarises a phase's windows that completed any request:
// the mean over the windows of each window's throughput, CPU time per
// request, p50 and p90 latency, and the median over the windows of the
// p99 latency (informational) and of the resident high-water mark.
//
// Other tenants of the host only ever slow a window, and on a shared
// 2-core VM they do so in two modes about 1.5x apart, the host switching
// between them every 10-150 ms and the share of slow time drifting from
// run to run. Any quantile over the windows jumps from one mode to the
// other when that share crosses its rank, which the median over windows
// did in runs of one build (a spread of 0.3 in latency p50 over ten
// runs); the mean moves in proportion to the share instead.
type phaseStats struct {
	reqPerS, cpuUS, p50US, p90US, p99US, rssMB float64
	perWindow                                  []float64 // each window's req/s, for the report
}

func summarise(stats []windowStat) phaseStats {
	var rps, cpus, p50, p90, p99, rss []float64
	for _, st := range stats {
		if st.n == 0 {
			continue
		}
		n := float64(st.n)
		rps = append(rps, n/window.Seconds())
		cpus = append(cpus, st.cpu.Seconds()*1e6/n)
		p50 = append(p50, st.p50)
		p90 = append(p90, st.p90)
		p99 = append(p99, st.p99)
		rss = append(rss, st.rssMB)
	}
	return phaseStats{mean(rps), mean(cpus), mean(p50), mean(p90), median(p99), median(rss), rps}
}
