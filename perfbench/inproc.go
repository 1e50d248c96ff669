package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/isa"
	"repro/internal/php"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

// inprocWorkload is a workload served in this process through
// serve.Scheduler.Do and workload.Worker.ServePageSpanCtx.
type inprocWorkload struct {
	name string
	pool poolSpec
	// The output check renders each page on an independent one-worker
	// pool built from ref and compares with same.
	ref  poolSpec
	same comparison
	// simRatio also runs the simulation pass on a software-only pool, to
	// report simulated accelerated/software time next to the paper's.
	simRatio bool
}

// poolSpec describes a pool to build.
type poolSpec struct {
	app   string
	accel bool
	mode  *php.TierMode // nil for Go-coded apps
}

var (
	tierBytecode = php.TierBytecode
	tierInterp   = php.TierInterp

	wpAccel = inprocWorkload{
		name: "wp_accel", pool: poolSpec{app: "wordpress", accel: true},
		ref: poolSpec{app: "wordpress"}, same: strippedEqual, simRatio: true,
	}
	wpSoft = inprocWorkload{
		name: "wp_soft", pool: poolSpec{app: "wordpress"},
		ref: poolSpec{app: "wordpress"}, same: byteIdentical,
	}
	blogScript = inprocWorkload{
		name: "blog_script", pool: poolSpec{app: "phpscript-blog", accel: true, mode: &tierBytecode},
		ref: poolSpec{app: "phpscript-blog", accel: true, mode: &tierInterp}, same: byteIdentical,
	}
)

// vmConfig is phpserve's "accelerated" or "mitigated" core config with its
// default 4096-event trace ring.
func vmConfig(accel bool) vm.Config {
	cfg := vm.Config{Mitigations: sim.AllMitigations(), TraceCapacity: 4096}
	if accel {
		cfg.Features = isa.AllAccelerators()
	}
	return cfg
}

func newPool(s poolSpec, workers int) (*workload.Pool, error) {
	pool, err := workload.NewPoolSharedSeed(workers, vmConfig(s.accel), s.app, contentSeed)
	if err != nil {
		return nil, err
	}
	if s.mode != nil {
		ok, err := pool.ConfigureScriptTier(*s.mode, php.DefaultTierPolicy())
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%s does not support script tiers", s.app)
		}
	}
	return pool, nil
}

// setupPool builds and warms a serving pool, returning how long that took.
func setupPool(s poolSpec) (*workload.Pool, time.Duration, error) {
	start := time.Now()
	pool, err := newPool(s, numWorkers)
	if err != nil {
		return nil, 0, err
	}
	pool.Run(workload.LoadGenerator{Warmup: warmupPerWorker, ContextSwitchEvery: ctxSwitchEvery}, 0)
	return pool, time.Since(start), nil
}

// renderer returns a function rendering one page on a fresh one-worker
// pool: the independent runtime the output check compares with.
func renderer(s poolSpec) (func(page int) ([]byte, error), error) {
	pool, err := newPool(s, 1)
	if err != nil {
		return nil, err
	}
	return func(page int) ([]byte, error) {
		w := pool.Acquire()
		defer pool.Release(w)
		body, _, err := w.ServePageSpanCtx(context.Background(), page, false)
		return append([]byte(nil), body...), err
	}, nil
}

func drawPages(keys *workload.ZipfKeys, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = keys.Next()
	}
	return out
}

func runInproc(o options, w inprocWorkload) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	keys, err := workload.NewZipfKeys(o.seed, zipfS, numPages)
	if err != nil {
		return nil, err
	}
	simPages := drawPages(keys, simRequests)

	pool, setup, err := setupPool(w.pool)
	if err != nil {
		return nil, err
	}
	setupTimes := []float64{setup.Seconds()}
	chk := newChecker()
	simRes, err := simPass(pool, simPages, chk)
	if err != nil {
		return nil, err
	}
	sched := serve.NewScheduler(pool, serve.Config{QueueDepth: queueDepth})

	var base, ph inprocPhase
	if o.trace {
		half := time.Duration(o.seconds/2) * time.Second
		if base, err = runInprocPhase(sched, keys, chk, half, false); err != nil {
			return nil, err
		}
		m0 := pool.MergedMeter().CategoryCyclesVec().Total()
		if ph, err = runInprocPhase(sched, keys, chk, half, true); err != nil {
			return nil, err
		}
		ph.simCycles = pool.MergedMeter().CategoryCyclesVec().Total() - m0
	} else if ph, err = runInprocPhase(sched, keys, chk, time.Duration(o.seconds)*time.Second, false); err != nil {
		return nil, err
	}
	ref, err := renderer(w.ref)
	if err != nil {
		return nil, err
	}
	v, err := chk.verify(ref, w.same)
	if err != nil {
		return nil, err
	}
	res.attempted = base.attempted + ph.attempted
	res.failed = base.failed + ph.failed + v.timedFailed
	res.correct = res.failed == 0 && v.untimedFailed == 0 && v.selftestOK
	res.note("workload %s: seed %d, %d workers, %d closed-loop clients, Zipf(%.1f) over %d pages, warmup %d/worker",
		w.name, o.seed, numWorkers, numClients, zipfS, numPages, warmupPerWorker)
	res.note("output check: %d distinct bodies vs %s reference (%s); %d failed in measured phase, %d before it; self-test caught corrupted response: %v",
		v.distinct, w.ref.describe(), w.same.name, v.timedFailed, v.untimedFailed, v.selftestOK)
	simRes.report(res)

	if w.simRatio {
		if err := reportSimRatio(res, simPages, simRes); err != nil {
			return nil, err
		}
	}
	if o.trace {
		return res, ph.layers(res, base, simRes, o, w.name)
	}

	for needSetup(setupTimes) {
		runtime.GC()
		_, d, err := setupPool(w.pool)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	served := float64(ph.served)
	ws := summarise(ph.windows)
	res.set("req_per_s", ws.reqPerS)
	res.set("cpu_us_per_req", ws.cpuUS)
	res.set("latency_p50_us", ws.p50US)
	res.set("latency_p90_us", ws.p90US)
	res.note("per-window req/s: %.0f", ws.perWindow)
	res.set("allocs_per_req", float64(ph.mallocs)/served)
	res.set("alloc_bytes_per_req", float64(ph.allocBytes)/served)
	res.set("peak_rss_mb", ws.rssMB)
	res.set("setup_s", median(setupTimes))
	simRes.metrics(res)
	res.note("measured %d requests in %.2fs; latency p99 %.0fus (informational); setup runs %v s",
		ph.served, ph.wall.Seconds(), ws.p99US, setupTimes)
	return res, nil
}

func (s poolSpec) describe() string {
	d := s.app + " software-only"
	if s.accel {
		d = s.app + " accelerated"
	}
	if s.mode != nil {
		d += " " + s.mode.String() + " tier"
	}
	return d
}

// simResult is the outcome of the deterministic simulation pass.
type simResult struct {
	requests int
	cats     sim.CategoryVec
	energy   float64
	accel    workload.AccelStats
	tier     php.TierSnapshot // counter deltas only
}

// simPass serves pages with a fixed page-to-worker assignment (request i
// on worker i mod n, each worker in order on its own goroutine), so the
// simulated counters it measures repeat exactly for a given seed however
// the host schedules the goroutines.
func simPass(pool *workload.Pool, pages []int, chk *checker) (simResult, error) {
	before, tb := pool.Snapshot(), pool.TierSnapshot()
	ws := make([]*workload.Worker, pool.Size())
	for range ws {
		w := pool.Acquire()
		ws[w.ID()] = w
	}
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *workload.Worker) {
			defer wg.Done()
			for j := i; j < len(pages); j += len(ws) {
				body, _, err := w.ServePageSpanCtx(context.Background(), pages[j], false)
				if err != nil {
					errs[i] = err
					return
				}
				if chk != nil {
					chk.observe(pages[j], body, true, false)
				}
				if w.Served()%ctxSwitchEvery == 0 {
					w.Runtime().ContextSwitch()
				}
			}
		}(i, w)
	}
	wg.Wait()
	for _, w := range ws {
		pool.Release(w)
	}
	for _, err := range errs {
		if err != nil {
			return simResult{}, err
		}
	}
	after, ta := pool.Snapshot(), pool.TierSnapshot()
	r := simResult{
		requests: len(pages),
		cats:     after.Meter.CategoryCyclesVec().Sub(before.Meter.CategoryCyclesVec()),
		energy:   meterEnergy(after.Meter) - meterEnergy(before.Meter),
	}
	a, b := after.Accel, before.Accel
	r.accel.HashTable.Gets = a.HashTable.Gets - b.HashTable.Gets
	r.accel.HashTable.GetHits = a.HashTable.GetHits - b.HashTable.GetHits
	r.accel.HashTable.Writebacks = a.HashTable.Writebacks - b.HashTable.Writebacks
	r.accel.MapRebuilds = a.MapRebuilds - b.MapRebuilds
	r.accel.RegexLookups = a.RegexLookups - b.RegexLookups
	r.accel.RegexHits = a.RegexHits - b.RegexHits
	r.tier.BytecodeCalls = ta.BytecodeCalls - tb.BytecodeCalls
	r.tier.InterpCalls = ta.InterpCalls - tb.InterpCalls
	r.tier.ICHits = ta.ICHits - tb.ICHits
	r.tier.ICMisses = ta.ICMisses - tb.ICMisses
	return r, nil
}

// meterEnergy sums per-function energy in the meter's sorted function
// order; float addition is order-sensitive, and a map-order sum would
// differ in the last digits from run to run.
func meterEnergy(mt *sim.Meter) float64 {
	var e float64
	for _, f := range mt.Functions() {
		e += f.Energy(&mt.Model)
	}
	return e
}

func (s simResult) cyclesPerReq() float64 { return s.cats.Total() / float64(s.requests) }

func (s simResult) metrics(res *result) {
	res.set("sim_cycles_per_req", s.cyclesPerReq())
	res.set("sim_energy_pj_per_req", s.energy/float64(s.requests))
}

// layerMetrics sets the per-layer counters measured in the simulation pass.
func (s simResult) layerMetrics(res *result) {
	n := float64(s.requests)
	for i, c := range simCategories {
		res.set("sim.cycles_per_req."+c, s.cats[i]/n)
	}
	ht := s.accel.HashTable
	res.set("hashtable.get_hit_ratio", ratio(float64(ht.GetHits), float64(ht.Gets)))
	res.set("hashtable.writebacks_per_req", float64(ht.Writebacks)/n)
	res.set("regex_cache.hit_ratio", ratio(float64(s.accel.RegexHits), float64(s.accel.RegexLookups)))
	res.set("hashmap.rebuilds_per_req", float64(s.accel.MapRebuilds)/n)
	t := s.tier
	res.set("php.bytecode_calls_per_req", float64(t.BytecodeCalls)/n)
	res.set("php.interp_calls_per_req", float64(t.InterpCalls)/n)
	res.set("php.ic_hit_ratio", ratio(float64(t.ICHits), float64(t.ICHits+t.ICMisses)))
}

func (s simResult) report(res *result) {
	res.note("simulation pass: %d requests, fixed page-to-worker assignment: %.6f sim cycles/req, %.6f pJ/req",
		s.requests, s.cyclesPerReq(), s.energy/float64(s.requests))
}

// Paper (Fig. 14, WordPress): execution time normalised to the
// unmitigated baseline, accelerated 70.22% and mitigated 88.15%.
const paperAccelOverMitigated = 70.22 / 88.15

// reportSimRatio runs the same simulation pass on a software-only pool
// and reports simulated accelerated/software time beside the paper's.
func reportSimRatio(res *result, pages []int, accel simResult) error {
	pool, _, err := setupPool(poolSpec{app: "wordpress"})
	if err != nil {
		return err
	}
	soft, err := simPass(pool, pages, nil)
	if err != nil {
		return err
	}
	r := accel.cyclesPerReq() / soft.cyclesPerReq()
	res.note("simulated time wp_accel/wp_soft = %.4f; paper accelerated/mitigated = 70.22/88.15 = %.4f; error %+.1f%%. The model is otherwise unvalidated.",
		r, paperAccelOverMitigated, 100*(r-paperAccelOverMitigated)/paperAccelOverMitigated)
	return nil
}

// inprocPhase is one measured phase of an in-process workload.
type inprocPhase struct {
	wall, cpu         time.Duration
	attempted, failed int
	served            int
	windows           []windowStat
	respBytes         int64
	mallocs           uint64
	allocBytes        uint64
	numGC             uint32
	spans             []span // traced phases only
	profile           []byte // traced phases only
	simCycles         float64
}

// runInprocPhase drives the scheduler from numClients closed-loop
// clients for d. A traced phase also records spans at the benchmark's
// call boundaries (client -> Scheduler.Do -> render callback) and a CPU
// profile.
func runInprocPhase(sched *serve.Scheduler, keys *workload.ZipfKeys, chk *checker, d time.Duration, traced bool) (inprocPhase, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return inprocPhase{}, err
		}
	}
	var rid atomic.Uint64
	parts := make([]inprocPhase, numClients)
	epoch := time.Now()
	rec := startRecorder(epoch, int(d/window), processSampler("self", func() (time.Duration, error) { return selfCPU(), nil }))
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(p *inprocPhase) {
			defer wg.Done()
			inprocClient(p, rec, sched, keys, chk, epoch, d, traced, &rid)
		}(&parts[c])
	}
	wg.Wait()
	ph := inprocPhase{wall: time.Since(epoch), cpu: selfCPU() - rec.start.cpu}
	if traced {
		pprof.StopCPUProfile()
		ph.profile = prof.Bytes()
	}
	windows, err := rec.wait()
	if err != nil {
		return ph, err
	}
	ph.windows = windows
	runtime.ReadMemStats(&ms1)
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ph.numGC = ms1.NumGC - ms0.NumGC
	for _, p := range parts {
		ph.attempted += p.attempted
		ph.failed += p.failed
		ph.served += p.served
		ph.respBytes += p.respBytes
		ph.spans = append(ph.spans, p.spans...)
	}
	if ph.served == 0 {
		return ph, errors.New("no request succeeded")
	}
	return ph, nil
}

func inprocClient(p *inprocPhase, rec *recorder, sched *serve.Scheduler, keys *workload.ZipfKeys, chk *checker,
	epoch time.Time, d time.Duration, traced bool, rid *atomic.Uint64) {
	buf := make([]byte, 0, 64<<10)
	ctx := context.Background()
	for time.Since(epoch) < d {
		c0 := time.Now()
		page := keys.Next()
		var r0, r1 time.Time
		d0 := time.Now()
		wait, err := sched.Do(ctx, func(w *workload.Worker) error {
			if traced {
				r0 = time.Now()
			}
			body, _, err := w.ServePageSpanCtx(ctx, page, false)
			if traced {
				r1 = time.Now()
			}
			if err != nil {
				return err
			}
			buf = append(buf[:0], body...)
			if w.Served()%ctxSwitchEvery == 0 {
				w.Runtime().ContextSwitch()
			}
			return nil
		})
		d1 := time.Now()
		p.attempted++
		if err != nil {
			p.failed++
			continue
		}
		chk.observe(page, buf, true, true)
		p.served++
		p.respBytes += int64(len(buf))
		rec.add(d1.Sub(d0))
		if traced {
			id := rid.Add(1)
			p.spans = append(p.spans,
				span{rid: id, name: "client", start: c0.Sub(epoch), dur: time.Since(c0)},
				span{rid: id, name: "serve", parent: "client", start: d0.Sub(epoch), dur: d1.Sub(d0), wait: wait},
				span{rid: id, name: "render", parent: "serve", start: r0.Sub(epoch), dur: r1.Sub(r0)})
		}
	}
}

// layers sets the per-layer metrics of a traced in-process run.
func (ph inprocPhase) layers(res *result, base inprocPhase, s simResult, o options, name string) error {
	served := float64(ph.served)
	self := selfTimes(ph.spans)
	var waits []time.Duration
	for _, sp := range ph.spans {
		if sp.name == "serve" {
			waits = append(waits, sp.wait)
		}
	}
	res.set("serve.queue_wait_us.p50", pctUS(waits, 0.50))
	res.set("serve.queue_wait_us.p90", pctUS(waits, 0.90))
	res.set("serve.self_us.p50", pctUS(self["serve"], 0.50))
	res.set("serve.shed", float64(ph.failed))
	res.set("workload.render_us.p50", pctUS(self["render"], 0.50))
	res.set("workload.render_us.p90", pctUS(self["render"], 0.90))
	res.set("workload.resp_bytes_per_req", float64(ph.respBytes)/served)
	for _, m := range []string{"cache.hit_ratio", "cache.coalesced", "cache.evictions_per_req",
		"phpserve.hit_rtt_us.p50", "phpserve.hit_rtt_us.p90", "phpserve.miss_rtt_us.p50", "phpserve.miss_rtt_us.p90"} {
		res.set(m, 0) // no response cache or socket layer in process
	}
	s.layerMetrics(res)
	cpuUS := ph.cpu.Seconds() * 1e6 / served
	res.set("sim.host_ns_per_kcycle", ph.cpu.Seconds()*1e9/(ph.simCycles/1000))
	res.set("go.gc_cycles_per_1k_req", float64(ph.numGC)*1000/served)
	res.set("trace.cpu_us_per_req", cpuUS)
	res.set("trace.overhead_ratio", cpuUS/(base.cpu.Seconds()*1e6/float64(base.served)))
	split, err := splitProfile(ph.profile, "main")
	if err != nil {
		return err
	}
	res.set("loadgen.client_cpu_us_per_req", cpuUS*ratio(split.client, split.total))
	setHostLayers(res, split, cpuUS)
	res.note("client self time p50 %.1fus (client span minus Scheduler.Do)", pctUS(self["client"], 0.5))
	return writeTrace(o, name, ph.spans, ph.profile, res)
}
