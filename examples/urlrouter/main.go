// Urlrouter demonstrates the hardware hash table on the symbol-table
// patterns the paper highlights (§4.2): the PHP extract() command pours
// key/value pairs into a local symbol table with dynamic key names, the
// foreach iterator preserves insertion order through the RTT even across
// evictions, and short-lived maps live and die entirely in hardware
// without ever touching memory.
package main

import (
	"fmt"

	"repro/internal/hashmap"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Leaf functions the example charges, interned once.
var (
	fnParseQuery     = sim.Intern("parse_query")
	fnExtract        = sim.Intern("extract")
	fnRenderTemplate = sim.Intern("render_template")
)

func main() {
	rt := vm.New(vm.Config{Features: isa.AllAccelerators(), Mitigations: sim.AllMitigations()})

	// Route table: query parameters arrive with dynamic key names.
	params := rt.NewArray(fnParseQuery)
	for i, kv := range [][2]string{
		{"page", "about"}, {"author", "gope"}, {"lang", "en"},
		{"utm_source", "newsletter"}, {"sort", "newest"},
	} {
		rt.ASet(fnParseQuery, params, hashmap.StrKey(kv[0]), kv[1], true)
		_ = i
	}

	// extract(): import every pair into the handler's symbol table.
	symtab := rt.NewArray(fnExtract)
	n := rt.Extract(fnExtract, symtab, params)
	fmt.Printf("extract() imported %d variables into the symbol table\n", n)

	// The template reads them back by dynamic name.
	for _, name := range []string{"page", "author", "lang"} {
		v, ok := rt.AGet(fnRenderTemplate, symtab, hashmap.StrKey(name), true)
		fmt.Printf("  $%s = %v (found=%v)\n", name, v, ok)
	}

	// foreach preserves insertion order — the RTT guarantee.
	fmt.Print("\nforeach order: ")
	rt.AForeach(fnRenderTemplate, symtab, func(k hashmap.Key, v interface{}) bool {
		fmt.Printf("%s ", k)
		return true
	})
	fmt.Println()

	// The whole exchange was served by the hardware hash table; the
	// short-lived maps are freed through the RTT without writebacks.
	before := rt.CPU().HT.Stats()
	rt.FreeArray(fnParseQuery, params)
	rt.FreeArray(fnExtract, symtab)
	after := rt.CPU().HT.Stats()

	fmt.Printf("\nhash table: %d GETs (%.0f%% hit), %d SETs, %d writebacks to memory\n",
		after.Gets, 100*after.HitRate(), after.Sets, after.Writebacks)
	fmt.Printf("frees invalidated entries via the RTT (scans: %d)\n", after.FreeScans-before.FreeScans)

	// Category accounting shows how little core time hash work took.
	cc := rt.Meter().CategoryCycles()
	fmt.Printf("hash cycles: %.0f of %.0f total (%.1f%%)\n",
		cc[sim.CatHash], rt.Meter().TotalCycles(), 100*cc[sim.CatHash]/rt.Meter().TotalCycles())
}
