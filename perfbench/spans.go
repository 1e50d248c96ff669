package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// span is one timed call at a boundary the benchmark crosses. Spans of
// one request share rid; parent names the span that made the call.
type span struct {
	rid    uint64
	name   string
	parent string
	start  time.Duration // since the traced phase began
	dur    time.Duration
	wait   time.Duration // serve spans: the queue wait Scheduler.Do returned
	note   string        // HTTP spans: X-Cache outcome
}

// selfTimes returns, per span name, each span's duration minus the
// durations of its children in the same request.
func selfTimes(spans []span) map[string][]time.Duration {
	type key struct {
		rid  uint64
		name string
	}
	child := map[key]time.Duration{}
	for _, s := range spans {
		if s.parent != "" {
			child[key{s.rid, s.parent}] += s.dur
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range spans {
		out[s.name] = append(out[s.name], s.dur-child[key{s.rid, s.name}])
	}
	return out
}

// setHostLayers charges the traced phase's CPU time per request to the
// repository's layers in proportion to the profile's samples, so the
// host_us.* metrics sum to trace.cpu_us_per_req.
func setHostLayers(res *result, split profileSplit, cpuUS float64) {
	res.note("host CPU per request by layer (traced run, CPU profile of %.0f ms):", split.total/1e6)
	sum := 0.0
	for _, l := range hostLayers {
		v := cpuUS * ratio(split.layers[l], split.total)
		sum += v
		res.set("host_us."+l, v)
		if v > 0 {
			res.note("  host_us.%-11s %9.2f us  %5.1f%%", l, v, 100*ratio(v, cpuUS))
		}
	}
	res.note("  sum                 %9.2f us (traced cpu_us_per_req %.2f); tracing overhead traced/untraced cpu_us_per_req = %.3f",
		sum, cpuUS, res.metrics["trace.overhead_ratio"])
}

// writeTrace writes the traced phase's spans (JSON lines) and CPU profile
// under the output directory.
func writeTrace(o options, name string, spans []span, profile []byte, res *result) error {
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", name, o.seed))
	if err := os.WriteFile(base+".cpu.pprof", profile, 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var line []byte
	for _, s := range spans {
		line = append(line[:0], `{"rid":`...)
		line = strconv.AppendUint(line, s.rid, 10)
		line = append(line, `,"span":`...)
		line = strconv.AppendQuote(line, s.name)
		line = append(line, `,"parent":`...)
		line = strconv.AppendQuote(line, s.parent)
		line = append(line, `,"start_us":`...)
		line = strconv.AppendFloat(line, float64(s.start)/1e3, 'f', 3, 64)
		line = append(line, `,"dur_us":`...)
		line = strconv.AppendFloat(line, float64(s.dur)/1e3, 'f', 3, 64)
		if s.name == "serve" {
			line = append(line, `,"queue_wait_us":`...)
			line = strconv.AppendFloat(line, float64(s.wait)/1e3, 'f', 3, 64)
		}
		if s.note != "" {
			line = append(line, `,"cache":`...)
			line = strconv.AppendQuote(line, s.note)
		}
		line = append(line, "}\n"...)
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	res.note("traced run wrote %d spans to %s.spans.jsonl and the CPU profile to %s.cpu.pprof", len(spans), base, base)
	return nil
}
