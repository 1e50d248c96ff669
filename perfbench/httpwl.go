package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/workload"
)

// phpserve is one running cmd/phpserve process.
type phpserve struct {
	cmd  *exec.Cmd
	addr string   // 127.0.0.1:<port>
	base string   // http://<addr>
	reqs [][]byte // GET request for each page
	done chan error
	http *http.Client
}

// startPHPServe launches phpserve on a free loopback port with the
// workload's configuration and waits until /healthz reports ready.
func startPHPServe(o options, pprofOn bool, logf *os.File) (*phpserve, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{"-addr", addr, "-app", "wordpress", "-config", "accelerated",
		"-workers", strconv.Itoa(numWorkers), "-warmup", strconv.Itoa(warmupPerWorker),
		"-cache", strconv.Itoa(cacheEntries), "-pages", strconv.Itoa(numPages), "-seed", strconv.Itoa(contentSeed)}
	if pprofOn {
		args = append(args, "-pprof")
	}
	s := &phpserve{
		cmd:  exec.Command(o.phpserve, args...),
		addr: addr,
		base: "http://" + addr,
		done: make(chan error, 1),
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: numClients,
			MaxConnsPerHost:     numClients,
			DisableCompression:  true,
		}},
	}
	for i := 0; i < numPages; i++ {
		s.reqs = append(s.reqs, []byte("GET /?page="+strconv.Itoa(i)+" HTTP/1.1\r\nHost: "+addr+"\r\n\r\n"))
	}
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even if it is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.done <- s.cmd.Wait() }()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := s.http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			return nil, fmt.Errorf("phpserve exited before becoming ready: %v (log %s)", err, logf.Name())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, errors.New("phpserve not ready after 120s")
		}
	}
}

// stop sends SIGTERM and requires a clean drain: exit status 0 within
// the drain grace period.
func (s *phpserve) stop() error {
	s.http.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("phpserve did not drain cleanly: %w", err)
		}
		return nil
	case <-time.After(40 * time.Second):
		s.kill()
		return errors.New("phpserve did not exit within 40s of SIGTERM")
	}
}

// kill stops the process unconditionally and waits for it.
func (s *phpserve) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// get fetches url into buf with the HTTP client and returns the status
// and X-Cache header.
func (s *phpserve) get(url string, buf *bytes.Buffer) (int, string, error) {
	resp, err := s.http.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), err
}

// pageConn is one keep-alive loopback connection that requests pages. It
// writes each request by hand and parses the response with
// http.ReadResponse, which costs the client a fraction of the CPU that
// http.Client's per-connection goroutines do: the client shares the
// host's cores with phpserve.
type pageConn struct {
	s *phpserve
	c net.Conn
	r *bufio.Reader
}

func (s *phpserve) dial() (*pageConn, error) {
	c, err := net.Dial("tcp", s.addr)
	if err != nil {
		return nil, err
	}
	return &pageConn{s: s, c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

// get requests page into buf and returns the status and X-Cache header.
// After an error the connection is replaced.
func (pc *pageConn) get(page int, buf *bytes.Buffer) (int, string, error) {
	code, xc, err := pc.roundTrip(page, buf)
	if err != nil {
		pc.c.Close()
		if c, derr := net.Dial("tcp", pc.s.addr); derr == nil {
			pc.c, pc.r = c, bufio.NewReaderSize(c, 64<<10)
		}
	}
	return code, xc, err
}

func (pc *pageConn) roundTrip(page int, buf *bytes.Buffer) (int, string, error) {
	if _, err := pc.c.Write(pc.s.reqs[page]); err != nil {
		return 0, "", err
	}
	resp, err := http.ReadResponse(pc.r, nil)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), err
}

func (pc *pageConn) close() { pc.c.Close() }

// scrape is one /metrics scrape: series ("name{labels}") to value. The
// benchmark parses the text format itself, not through internal/obs, so
// that it depends on phpserve only through its HTTP surface.
type scrape map[string]float64

func (s *phpserve) scrape() (scrape, error) {
	var buf bytes.Buffer
	code, _, err := s.get(s.base+"/metrics", &buf)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	out := scrape{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sum adds every series of the metric name.
func (m scrape) sum(name string) float64 {
	var t float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// delta returns after - before for the metric name.
func delta(before, after scrape, name string) float64 { return after.sum(name) - before.sum(name) }

// histQuantileUS estimates the q-quantile, in microseconds, of the
// observations a histogram (seconds) gained between two scrapes, by
// linear interpolation within the bucket holding it.
func histQuantileUS(before, after scrape, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
			if err == nil {
				bs = append(bs, bucket{le, v - before[k]})
			}
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	target := q * bs[len(bs)-1].n
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= target {
			if b.n == prev || b.le > 1e300 {
				return lo * 1e6
			}
			return (lo + (b.le-lo)*(target-prev)/(b.n-prev)) * 1e6
		}
		lo, prev = b.le, b.n
	}
	return lo * 1e6
}

// numGC reads the Go runtime's GC count from the pprof heap endpoint.
func (s *phpserve) numGC() (float64, error) {
	var buf bytes.Buffer
	if _, _, err := s.get(s.base+"/debug/pprof/heap?debug=1", &buf); err != nil {
		return 0, err
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# NumGC = "); ok {
			return strconv.ParseFloat(rest, 64)
		}
	}
	return 0, errors.New("no NumGC in heap profile")
}

// sequential requests pages one at a time over one connection, so the
// server sees the same order every run: it warms the response cache and
// is the deterministic simulation pass.
func (s *phpserve) sequential(pages []int, chk *checker) error {
	pc, err := s.dial()
	if err != nil {
		return err
	}
	defer pc.close()
	var buf bytes.Buffer
	for _, p := range pages {
		code, xc, err := pc.get(p, &buf)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("page %d: status %d", p, code)
		}
		if chk != nil {
			chk.observe(p, buf.Bytes(), xc == "MISS", false)
		}
	}
	return nil
}

// setupHTTP launches phpserve and warms its response cache; the returned
// duration is launch to warm.
func setupHTTP(o options, pprofOn bool, logf *os.File, warm []int, chk *checker) (*phpserve, time.Duration, error) {
	start := time.Now()
	s, err := startPHPServe(o, pprofOn, logf)
	if err != nil {
		return nil, 0, err
	}
	if err := s.sequential(warm, chk); err != nil {
		s.kill()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// httpPhase is one measured phase against phpserve.
type httpPhase struct {
	wall, serverCPU, clientCPU time.Duration
	attempted, failed, served  int
	windows                    []windowStat // phpserve's CPU and memory
	hit, miss                  []time.Duration
	spans                      []span
	before, after              scrape
	profile                    []byte  // traced phase: phpserve's CPU profile
	gcs                        float64 // traced phase: phpserve's GC cycles
}

// runHTTPPhase drives phpserve from numClients closed-loop connections
// for d, scraping /metrics before and after.
func runHTTPPhase(s *phpserve, keys *workload.ZipfKeys, chk *checker, d time.Duration, traced bool) (httpPhase, error) {
	var ph httpPhase
	var err error
	if ph.before, err = s.scrape(); err != nil {
		return ph, err
	}
	pid := s.cmd.Process.Pid
	parts := make([]httpPhase, numClients)
	conns := make([]*pageConn, numClients)
	for c := range conns {
		if conns[c], err = s.dial(); err != nil {
			return ph, err
		}
	}
	var rid atomic.Uint64
	epoch := time.Now()
	rec := startRecorder(epoch, int(d/window), processSampler(strconv.Itoa(pid), func() (time.Duration, error) { return procCPU(pid) }))
	cli0 := selfCPU()
	var wg sync.WaitGroup
	for c, pc := range conns {
		wg.Add(1)
		go func(p *httpPhase, pc *pageConn) {
			defer wg.Done()
			defer pc.close()
			var buf bytes.Buffer
			for time.Since(epoch) < d {
				page := keys.Next()
				t0 := time.Now()
				code, xc, err := pc.get(page, &buf)
				lat := time.Since(t0)
				p.attempted++
				if err != nil || code != http.StatusOK {
					p.failed++
					continue
				}
				chk.observe(page, buf.Bytes(), xc == "MISS", true)
				p.served++
				rec.add(lat)
				switch xc {
				case "HIT":
					p.hit = append(p.hit, lat)
				case "MISS":
					p.miss = append(p.miss, lat)
				}
				if traced {
					p.spans = append(p.spans, span{rid: rid.Add(1), name: "http_get", start: t0.Sub(epoch), dur: lat, note: xc})
				}
			}
		}(&parts[c], pc)
	}
	wg.Wait()
	ph.wall = time.Since(epoch)
	ph.clientCPU = selfCPU() - cli0
	srv1, err := procCPU(pid)
	if err != nil {
		return ph, err
	}
	if ph.windows, err = rec.wait(); err != nil {
		return ph, err
	}
	ph.serverCPU = srv1 - rec.start.cpu
	if ph.after, err = s.scrape(); err != nil {
		return ph, err
	}
	for _, p := range parts {
		ph.attempted += p.attempted
		ph.failed += p.failed
		ph.served += p.served
		ph.hit = append(ph.hit, p.hit...)
		ph.miss = append(ph.miss, p.miss...)
		ph.spans = append(ph.spans, p.spans...)
	}
	if ph.served == 0 {
		return ph, errors.New("no request succeeded")
	}
	return ph, nil
}

func (ph httpPhase) cpuUS() float64 { return ph.serverCPU.Seconds() * 1e6 / float64(ph.served) }

func runHTTP(o options) (*result, error) {
	if o.phpserve == "" {
		return nil, errors.New("--phpserve is required for http_cache_zipf")
	}
	res := &result{metrics: map[string]float64{}}
	keys, err := workload.NewZipfKeys(o.seed, zipfS, numPages)
	if err != nil {
		return nil, err
	}
	warm := drawPages(keys, cacheWarmRequests)
	simPages := drawPages(keys, httpSimRequests)
	logf, err := os.Create(filepath.Join(o.out, fmt.Sprintf("phpserve-seed%d.log", o.seed)))
	if err != nil {
		return nil, err
	}
	defer logf.Close()

	chk := newChecker()
	s, setup, err := setupHTTP(o, o.trace, logf, warm, chk)
	if err != nil {
		return nil, err
	}
	setupTimes := []float64{setup.Seconds()}
	running := true
	defer func() {
		if running {
			s.kill()
		}
	}()
	m0, err := s.scrape()
	if err != nil {
		return nil, err
	}
	if err := s.sequential(simPages, chk); err != nil {
		return nil, err
	}
	m1, err := s.scrape()
	if err != nil {
		return nil, err
	}
	simRes := httpSimResult(m0, m1, len(simPages))
	var base, ph httpPhase
	if o.trace {
		half := o.seconds / 2
		if base, err = runHTTPPhase(s, keys, chk, time.Duration(half)*time.Second, false); err != nil {
			return nil, err
		}
		ph, err = s.tracedPhase(keys, chk, half)
	} else {
		ph, err = runHTTPPhase(s, keys, chk, time.Duration(o.seconds)*time.Second, false)
	}
	if err != nil {
		return nil, err
	}
	running = false
	if err := s.stop(); err != nil {
		return nil, err
	}
	res.note("workload http_cache_zipf: seed %d, phpserve -workers %d -cache %d, %d keep-alive connections, Zipf(%.1f) over %d pages, warmup %d/worker + %d cache-warming requests",
		o.seed, numWorkers, cacheEntries, numClients, zipfS, numPages, warmupPerWorker, cacheWarmRequests)

	ref, err := renderer(poolSpec{app: "wordpress"})
	if err != nil {
		return nil, err
	}
	v, err := chk.verify(ref, strippedEqual)
	if err != nil {
		return nil, err
	}
	res.attempted = base.attempted + ph.attempted
	res.failed = base.failed + ph.failed + v.timedFailed
	res.correct = res.failed == 0 && v.untimedFailed == 0 && v.selftestOK
	res.note("output check: %d distinct bodies; misses vs wordpress software-only reference (%s), hits byte-identical to a fill; %d failed in measured phase, %d before it; self-test caught corrupted response: %v",
		v.distinct, strippedEqual.name, v.timedFailed, v.untimedFailed, v.selftestOK)
	res.note("phpserve stopped with SIGTERM and drained cleanly (exit 0)")
	simRes.report(res)

	clientUS := ph.clientCPU.Seconds() * 1e6 / float64(ph.served)
	res.note("generator: client CPU %.1fus/req vs server %.1fus/req; client used %.2f cores", clientUS, ph.cpuUS(), ph.clientCPU.Seconds()/ph.wall.Seconds())
	if clientUS >= ph.cpuUS() || ph.clientCPU.Seconds() >= 0.9*ph.wall.Seconds() {
		res.note("WARNING: the load generator, not phpserve, may have limited throughput in this run")
	}
	if o.trace {
		return res, ph.layers(res, base, simRes, o)
	}

	for needSetup(setupTimes) {
		s2, d, err := setupHTTP(o, false, logf, warm, nil)
		if err != nil {
			return nil, err
		}
		if err := s2.stop(); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	ws := summarise(ph.windows)
	res.set("req_per_s", ws.reqPerS)
	res.set("cpu_us_per_req", ws.cpuUS)
	res.set("latency_p50_us", ws.p50US)
	res.set("latency_p90_us", ws.p90US)
	res.note("per-window req/s: %.0f", ws.perWindow)
	res.set("allocs_per_req", ph.after.sum("phpserve_go_allocs_per_request"))
	res.set("alloc_bytes_per_req", ph.after.sum("phpserve_go_alloc_bytes_per_request"))
	res.set("peak_rss_mb", ws.rssMB)
	res.set("setup_s", median(setupTimes))
	simRes.metrics(res)
	res.note("measured %d requests in %.2fs (%d hits, %d misses); latency p99 %.0fus (informational); setup runs %v s",
		ph.served, ph.wall.Seconds(), len(ph.hit), len(ph.miss), ws.p99US, setupTimes)
	return res, nil
}

// tracedPhase runs a measured phase while phpserve records a CPU profile
// of itself for the same number of seconds.
func (s *phpserve) tracedPhase(keys *workload.ZipfKeys, chk *checker, secs int) (httpPhase, error) {
	gc0, err := s.numGC()
	if err != nil {
		return httpPhase{}, err
	}
	type profile struct {
		data []byte
		err  error
	}
	profCh := make(chan profile, 1)
	go func() {
		var buf bytes.Buffer
		code, _, err := s.get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", s.base, secs), &buf)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("/debug/pprof/profile: status %d", code)
		}
		profCh <- profile{buf.Bytes(), err}
	}()
	ph, err := runHTTPPhase(s, keys, chk, time.Duration(secs)*time.Second, true)
	prof := <-profCh
	if err != nil {
		return ph, err
	}
	if prof.err != nil {
		return ph, prof.err
	}
	gc1, err := s.numGC()
	if err != nil {
		return ph, err
	}
	ph.profile, ph.gcs = prof.data, gc1-gc0
	return ph, nil
}

// httpSimResult turns two /metrics scrapes around the sequential
// simulation pass into the simulation counters. The server sums energy
// over a map, so its last digits vary with map order; the energy is
// rounded to 10 significant digits, well above that noise.
func httpSimResult(m0, m1 scrape, requests int) simResult {
	r := simResult{requests: requests}
	for i, c := range simCategories {
		k := `phpserve_sim_cycles_total{category="` + c + `"}`
		r.cats[i] = m1[k] - m0[k]
	}
	e := delta(m0, m1, "phpserve_sim_energy_picojoules_total")
	r.energy, _ = strconv.ParseFloat(strconv.FormatFloat(e, 'g', 10, 64), 64)
	r.accel.HashTable.Gets = int64(delta(m0, m1, "phpserve_hashtable_gets_total"))
	r.accel.HashTable.GetHits = int64(delta(m0, m1, "phpserve_hashtable_get_hits_total"))
	r.accel.HashTable.Writebacks = int64(delta(m0, m1, "phpserve_hashtable_writebacks_total"))
	r.accel.MapRebuilds = int64(delta(m0, m1, "phpserve_hashmap_rebuilds_total"))
	r.accel.RegexLookups = int64(delta(m0, m1, "phpserve_regex_cache_lookups_total"))
	r.accel.RegexHits = int64(delta(m0, m1, "phpserve_regex_cache_hits_total"))
	return r
}

// layers sets the per-layer metrics of a traced http_cache_zipf run.
func (ph httpPhase) layers(res *result, base httpPhase, s simResult, o options) error {
	b, a := ph.before, ph.after
	served := float64(ph.served)
	reqs := delta(b, a, "phpserve_requests_total")
	res.set("serve.queue_wait_us.p50", histQuantileUS(b, a, "phpserve_queue_wait_seconds", 0.50))
	res.set("serve.queue_wait_us.p90", histQuantileUS(b, a, "phpserve_queue_wait_seconds", 0.90))
	res.set("serve.self_us.p50", 0) // not observable from outside the server
	res.set("serve.shed", delta(b, a, "phpserve_shed_total"))
	res.set("workload.render_us.p50", 0) // not observable from outside the server
	res.set("workload.render_us.p90", 0)
	res.set("workload.resp_bytes_per_req", ratio(delta(b, a, "phpserve_response_bytes_total"), reqs))
	hits, misses, coal := delta(b, a, "phpserve_cache_hits_total"), delta(b, a, "phpserve_cache_misses_total"), delta(b, a, "phpserve_cache_coalesced_total")
	res.set("cache.hit_ratio", ratio(hits, hits+misses+coal))
	res.set("cache.coalesced", coal)
	res.set("cache.evictions_per_req", ratio(delta(b, a, "phpserve_cache_evictions_total"), reqs))
	res.set("phpserve.hit_rtt_us.p50", pctUS(ph.hit, 0.50))
	res.set("phpserve.hit_rtt_us.p90", pctUS(ph.hit, 0.90))
	res.set("phpserve.miss_rtt_us.p50", pctUS(ph.miss, 0.50))
	res.set("phpserve.miss_rtt_us.p90", pctUS(ph.miss, 0.90))
	res.set("loadgen.client_cpu_us_per_req", ph.clientCPU.Seconds()*1e6/served)
	s.layerMetrics(res)
	var cycles float64
	for _, c := range simCategories {
		k := `phpserve_sim_cycles_total{category="` + c + `"}`
		cycles += a[k] - b[k]
	}
	res.set("sim.host_ns_per_kcycle", ph.serverCPU.Seconds()*1e9/(cycles/1000))
	res.set("go.gc_cycles_per_1k_req", ph.gcs*1000/served)
	cpuUS := ph.cpuUS()
	res.set("trace.cpu_us_per_req", cpuUS)
	res.set("trace.overhead_ratio", cpuUS/base.cpuUS())
	split, err := splitProfile(ph.profile, "")
	if err != nil {
		return err
	}
	setHostLayers(res, split, cpuUS)
	return writeTrace(o, "http_cache_zipf", ph.spans, ph.profile, res)
}
