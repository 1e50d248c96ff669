// Command tracedump decodes an operation trace written by phpsim -trace
// and prints per-kind statistics plus (optionally) the raw event stream.
//
// Usage:
//
//	tracedump [-v] [-head 50] trace.bin
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	verbose := flag.Bool("v", false, "print every event")
	head := flag.Int("head", 0, "print only the first N events (with -v)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracedump [-v] [-head N] trace.bin")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	events, err := trace.Read(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(1)
	}

	counts := map[trace.Kind]int{}
	fnCounts := map[sim.Fn]int{}
	var keyBytes, shortKeys, hashOps int
	for _, e := range events {
		counts[e.Kind]++
		fnCounts[e.Fn]++
		switch e.Kind {
		case trace.KindHashGet, trace.KindHashSet:
			hashOps++
			keyBytes += int(e.B)
			if e.B <= 24 {
				shortKeys++
			}
		}
	}

	fmt.Printf("%d events\n\nby kind:\n", len(events))
	for k := trace.Kind(0); int(counts[k]) >= 0 && int(k) < 16; k++ {
		if counts[k] == 0 {
			continue
		}
		fmt.Printf("  %-14s %8d\n", k, counts[k])
	}
	if hashOps > 0 {
		fmt.Printf("\nhash keys: avg %.1f bytes, %.1f%% <= 24 bytes\n",
			float64(keyBytes)/float64(hashOps), 100*float64(shortKeys)/float64(hashOps))
	}

	type fc struct {
		fn string
		n  int
	}
	var fns []fc
	for fn, n := range fnCounts {
		fns = append(fns, fc{fn.String(), n})
	}
	sort.Slice(fns, func(i, j int) bool {
		if fns[i].n != fns[j].n {
			return fns[i].n > fns[j].n
		}
		return fns[i].fn < fns[j].fn
	})
	fmt.Println("\nbusiest functions:")
	for i, e := range fns {
		if i >= 10 {
			break
		}
		fmt.Printf("  %-34s %8d\n", e.fn, e.n)
	}

	if *verbose {
		n := len(events)
		if *head > 0 && *head < n {
			n = *head
		}
		fmt.Println("\nevents:")
		for _, e := range events[:n] {
			fmt.Printf("  %-14s %-28s A=%#x B=%d C=%d\n", e.Kind, e.Fn, e.A, e.B, e.C)
		}
	}
}
