// Wikirender demonstrates the regexp accelerator on a MediaWiki-style
// article pipeline: a sieve regexp scans the wikitext once and produces a
// hint vector; the following shadow regexps skip every segment without
// special characters; and the content reuse table jumps repeated URL
// scans straight to the remembered FSM state (Fig. 13).
package main

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Leaf functions the example charges, interned once.
var (
	fnWfParse = sim.Intern("wfParse")
	fnWfRoute = sim.Intern("wfRoute")
)

func article() []byte {
	para := "The accelerator processes ordinary prose quickly because most " +
		"segments contain no special characters at all and can be skipped. "
	markup := `A "quoted" claim<ref name=x/> and a <em>styled</em> span. `
	var sb strings.Builder
	for i := 0; i < 30; i++ {
		sb.WriteString(para)
		if i%6 == 5 {
			sb.WriteString(markup)
		}
	}
	return []byte(sb.String())
}

func main() {
	rt := vm.New(vm.Config{Features: isa.AllAccelerators(), Mitigations: sim.AllMitigations()})
	cpu := rt.CPU()
	body := article()

	// The sieve: the first regexp over the content scans everything and
	// emits the hint vector through the string accelerator.
	sieve := rt.MustRegex(fnWfParse, `<`)
	tags, hv := cpu.RegexSieve(fnWfParse, sieve, body)
	fmt.Printf("article: %d bytes; sieve '<' found %d tags\n", len(body), len(tags))

	// Shadows: later regexps consult the HV and skip clean segments.
	for _, pattern := range []string{`"[a-z ]*"`, `&`, `(?<=\w)'`} {
		re := rt.MustRegex(fnWfParse, pattern)
		ms := cpu.RegexShadow(fnWfParse, re, body, hv)
		fmt.Printf("shadow %-14q found %2d matches\n", pattern, len(ms))
	}
	st := cpu.RA.Stats()
	fmt.Printf("\ncontent sifting skipped %.1f%% of the bytes presented to shadows\n",
		100*float64(st.BytesSkippedSift)/float64(st.BytesPresented))

	// Content reuse: author URLs that differ only in the final field.
	re := rt.MustRegex(fnWfRoute, `https://[a-z]+/\?author=[a-z0-9]+`)
	for _, author := range []string{"alice", "amara", "ezra", "erin"} {
		url := []byte("https://localhost/?author=" + author)
		end := rt.ScanURL(fnWfRoute, re, 0xBEEF, url)
		fmt.Printf("scan %-38s accepted prefix %2d bytes\n", url, end)
	}
	st = cpu.RA.Stats()
	fmt.Printf("\nreuse table: %d lookups, %d hits, %d resizes; %d bytes skipped by FSM jumps\n",
		st.ReuseLookups, st.ReuseHits, st.ReuseResizes, st.BytesSkippedReuse)
}
