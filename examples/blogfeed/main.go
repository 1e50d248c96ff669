// Blogfeed renders a blog feed — the WordPress-style workload the paper
// motivates — on a software-only core and on the accelerated core, and
// reports the per-category speedup the four accelerators deliver.
//
// This is the Fig. 14/15 experiment in miniature, driven directly through
// the public Runtime API rather than the experiment harness.
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
	fnRenderFeed  = sim.Intern("render_feed")
	fnLoadOptions = sim.Intern("load_options")
	fnWptexturize = sim.Intern("wptexturize")
	fnGetPostMeta = sim.Intern("get_post_meta")
	fnBuildLink   = sim.Intern("build_link")
)

// renderFeed builds a small blog feed page: post metadata from hash maps,
// attribute tags with escaped values, a texturize regexp chain over each
// body, and comment formatting.
func renderFeed(rt *vm.Runtime, posts int) []byte {
	rt.BeginRequest()
	ob := rt.NewOutputBuffer(fnRenderFeed)
	ob.WriteString("<html><body>\n")

	// Site options: static keys, specialized away by inline caching.
	opts := rt.NewArray(fnLoadOptions)
	rt.ASet(fnLoadOptions, opts, hashmap.StrKey("blogname"), []byte("repro blog"), false)
	rt.ASet(fnLoadOptions, opts, hashmap.StrKey("posts_per_page"), posts, false)
	name, _ := rt.AGet(fnLoadOptions, opts, hashmap.StrKey("blogname"), false)
	ob.Write(rt.Concat(fnRenderFeed, []byte("<h1>"), rt.EscapeHTML(fnRenderFeed, name.([]byte)), []byte("</h1>\n")))

	chain, err := rt.NewChain(fnWptexturize, []vm.ChainStep{
		{Pattern: `(?<=\w)'`, Repl: "&#8217;"}, // curly apostrophe
		{Pattern: `"`, Repl: "&#8221;"},        // curly quote
		{Pattern: "\n", Repl: "<br />"},        // line breaks
		{Pattern: `<`, Repl: "&lt;"},           // stray tags
	})
	if err != nil {
		panic(err)
	}

	for i := 0; i < posts; i++ {
		// Post metadata in a short-lived hash map with dynamic keys.
		meta := rt.NewArray(fnGetPostMeta)
		rt.ASet(fnGetPostMeta, meta, hashmap.StrKey("title"), fmt.Sprintf("Post #%d: the server's \"big\" day", i), true)
		rt.ASet(fnGetPostMeta, meta, hashmap.StrKey("author"), fmt.Sprintf("author%d", i%3), true)
		rt.ASet(fnGetPostMeta, meta, hashmap.StrKey("href"), fmt.Sprintf("/?p=%d", i), true)

		attrs := rt.NewArray(fnBuildLink)
		rt.AForeach(fnGetPostMeta, meta, func(k hashmap.Key, v interface{}) bool {
			if k.Str == "href" {
				rt.ASet(fnBuildLink, attrs, k, []byte(v.(string)), true)
			}
			return true
		})
		title, _ := rt.AGet(fnGetPostMeta, meta, hashmap.StrKey("title"), true)
		tag := rt.BuildTag(fnBuildLink, "a", attrs, []byte(title.(string)))
		ob.Write(tag)
		ob.WriteString("\n")

		// Realistic post text: long runs of ordinary prose with occasional
		// special characters — the texture that makes content sifting pay.
		plain := "The server hums along rendering page after page of perfectly " +
			"ordinary text that the shadow regexps skip entirely without ever " +
			"touching the bytes because their segments carry no special characters. "
		body := []byte(plain + plain + "It's a fine day for \"benchmarks\".\n" +
			plain + plain + plain + "A <tag> appears here. " + plain)
		out, _ := chain.Apply(fnWptexturize, body)
		ob.Write(out)
		ob.WriteString("\n")

		rt.FreeArray(fnBuildLink, attrs)
		rt.FreeArray(fnGetPostMeta, meta)
	}
	ob.WriteString("</body></html>\n")
	return ob.Bytes()
}

func main() {
	const posts = 12
	run := func(feats isa.Features) (*vm.Runtime, []byte) {
		rt := vm.New(vm.Config{Features: feats, Mitigations: sim.AllMitigations()})
		var page []byte
		for i := 0; i < 20; i++ { // warm the hardware structures
			page = renderFeed(rt, posts)
		}
		rt.Meter().Reset()
		page = renderFeed(rt, posts)
		return rt, page
	}

	swRT, swPage := run(isa.Features{})
	hwRT, hwPage := run(isa.AllAccelerators())

	fmt.Printf("software page: %d bytes, accelerated page: %d bytes\n\n", len(swPage), len(hwPage))

	swCat := swRT.Meter().CategoryCycles()
	hwCat := hwRT.Meter().CategoryCycles()
	fmt.Printf("%-10s %14s %14s %10s\n", "category", "software cyc", "accel cyc", "speedup")
	for _, c := range sim.Categories() {
		if swCat[c] == 0 {
			continue
		}
		fmt.Printf("%-10s %14.0f %14.0f %9.2fx\n", c, swCat[c], hwCat[c], swCat[c]/(hwCat[c]+1))
	}
	fmt.Printf("%-10s %14.0f %14.0f %9.2fx\n", "TOTAL",
		swRT.Meter().TotalCycles(), hwRT.Meter().TotalCycles(),
		swRT.Meter().TotalCycles()/hwRT.Meter().TotalCycles())
}
