package main

import (
	"bytes"
	"fmt"
	"sync"
)

// checker collects every distinct response body per page and, after the
// measured phase, compares each one with a reference rendered by an
// independent runtime. Responses are compared byte for byte against the
// bodies already seen for their page while the run is timed (a memcmp of
// a few KB), so the comparison with the reference — which may strip
// whitespace — runs once per distinct body, off the clock.
type checker struct {
	mu    sync.Mutex
	pages [][]*bodyRecord
}

// bodyRecord is one distinct body seen for a page.
type bodyRecord struct {
	body    []byte
	fill    bool // seen as a render: in process, or an HTTP cache miss
	timed   int  // responses with this body in the measured phase
	untimed int  // responses with this body before it (warmup, sim pass)
}

func newChecker() *checker { return &checker{pages: make([][]*bodyRecord, numPages)} }

// observe records one response. fill marks a body that a worker rendered
// for this request (as opposed to a cache hit); timed marks the measured
// phase. body is copied only when it is new for the page.
func (c *checker) observe(page int, body []byte, fill, timed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rec *bodyRecord
	for _, r := range c.pages[page] {
		if bytes.Equal(r.body, body) {
			rec = r
			break
		}
	}
	if rec == nil {
		rec = &bodyRecord{body: append([]byte(nil), body...)}
		c.pages[page] = append(c.pages[page], rec)
	}
	rec.fill = rec.fill || fill
	if timed {
		rec.timed++
	} else {
		rec.untimed++
	}
}

// comparison is how a response is matched with its reference.
type comparison struct {
	name string
	same func(got, want []byte) bool
}

var (
	byteIdentical = comparison{"byte-identical", bytes.Equal}
	// strippedEqual compares with ASCII whitespace removed, which allows
	// for the padding that the accelerated regex path (§4.5 sifting)
	// leaves in the HTML: accelerated and software-only renders of a page
	// differ only in whitespace.
	strippedEqual = comparison{"equal once whitespace is removed", func(got, want []byte) bool {
		return bytes.Equal(stripSpace(got), stripSpace(want))
	}}
)

// verification is the outcome of checking every recorded body.
type verification struct {
	timedFailed   int // measured-phase responses that failed the check
	untimedFailed int
	distinct      int // distinct bodies checked
	selftestOK    bool
}

// verify renders the reference of every page seen and checks every
// distinct body against it with cmp. A body never produced by a render
// (only ever seen as a cache hit) fails too: a hit must repeat its fill
// byte for byte, and every fill reaches some client. Finally, as a
// self-test, it feeds a corrupted copy of one recorded body through a
// fresh checker and confirms that it is counted as a failure.
func (c *checker) verify(ref func(page int) ([]byte, error), cmp comparison) (verification, error) {
	v, err := c.count(ref, cmp)
	if err != nil {
		return v, err
	}
	for page, recs := range c.pages {
		if len(recs) > 0 {
			probe := newChecker()
			probe.observe(page, corrupt(recs[0].body), true, true)
			pv, err := probe.count(ref, cmp)
			v.selftestOK = err == nil && pv.timedFailed == 1
			break
		}
	}
	return v, nil
}

func (c *checker) count(ref func(page int) ([]byte, error), cmp comparison) (verification, error) {
	var v verification
	for page, recs := range c.pages {
		if len(recs) == 0 {
			continue
		}
		want, err := ref(page)
		if err != nil {
			return v, fmt.Errorf("reference render of page %d: %w", page, err)
		}
		for _, r := range recs {
			v.distinct++
			if !r.fill || !cmp.same(r.body, want) {
				v.timedFailed += r.timed
				v.untimedFailed += r.untimed
			}
		}
	}
	return v, nil
}

// corrupt returns a copy of body with the case of its first letter
// flipped: a change that survives whitespace stripping.
func corrupt(body []byte) []byte {
	out := append([]byte(nil), body...)
	for i, b := range out {
		if (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') {
			out[i] ^= 0x20
			return out
		}
	}
	return append(out, 'x')
}

func stripSpace(b []byte) []byte {
	out := make([]byte, 0, len(b))
	for _, c := range b {
		switch c {
		case ' ', '\t', '\n', '\r', '\f', '\v':
		default:
			out = append(out, c)
		}
	}
	return out
}
