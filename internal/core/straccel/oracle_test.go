package straccel

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/strlib"
)

// refAccel is the cell-level model of the matching matrix: every subject
// byte is compared against every active row, multi-byte patterns carry
// their diagonal state from column to column and across blocks, and each
// block charges one pass as the scan reaches it. Accel charges the same
// counters in closed form; refAccel is the oracle those charges are
// checked against, result and Stats alike.
//
// One deliberate difference from the cell-level model as first written:
// Translate lets the last row for a repeated source character win, as
// PHP's strtr does, instead of the first.
type refAccel struct {
	cfg   Config
	cur   MatrixConfig
	stats Stats
	sw    strlib.Lib
	diag  []bool
}

func newRef(cfg Config) *refAccel { return &refAccel{cfg: cfg.sanitized()} }

func (a *refAccel) charge(blockLen, nRows int) {
	a.stats.Blocks++
	a.stats.Bytes += int64(blockLen)
	a.stats.ActiveCells += int64(blockLen * nRows)
	a.stats.GatedCells += int64(blockLen * (a.cfg.Rows - nRows))
}

// chargeBlocks accounts a whole-subject streaming pass that issues at
// least one pass even for an empty subject.
func (a *refAccel) chargeBlocks(n, nRows int) {
	for rem := n; ; {
		blk := min(rem, a.cfg.BlockBytes)
		a.charge(blk, nRows)
		rem -= blk
		if rem <= 0 {
			break
		}
	}
}

func (a *refAccel) Find(subject, pattern []byte) (int, bool) {
	if len(pattern) > a.cfg.Rows || len(pattern) == 0 {
		a.stats.Bypasses++
		return a.sw.Find(subject, pattern), false
	}
	a.stats.Ops++
	return a.matchScan(subject, pattern), true
}

// matchScan runs the matching matrix over subject looking for pattern,
// charging per-block costs but not the per-op counter.
func (a *refAccel) matchScan(subject, pattern []byte) int {
	m := len(pattern)
	if cap(a.diag) < m {
		a.diag = make([]bool, m)
	}
	diag := a.diag[:m] // diag[k]: k+1 leading pattern bytes matched so far
	clear(diag)
	for base := 0; base < len(subject); base += a.cfg.BlockBytes {
		end := min(base+a.cfg.BlockBytes, len(subject))
		block := subject[base:end]
		a.charge(len(block), m)
		for i, c := range block {
			// One column of the matching matrix: compare c against every
			// pattern row in parallel, then AND with the diagonal.
			for k := m - 1; k >= 1; k-- {
				diag[k] = diag[k-1] && pattern[k] == c
			}
			diag[0] = pattern[0] == c
			if diag[m-1] {
				return base + i - m + 1
			}
		}
	}
	return -1
}

func (a *refAccel) Compare(x, y []byte) int {
	a.stats.Ops++
	n := min(len(x), len(y))
	for base := 0; base < n; base += a.cfg.BlockBytes {
		end := min(base+a.cfg.BlockBytes, n)
		a.charge(end-base, 1)
		for i := base; i < end; i++ {
			switch {
			case x[i] < y[i]:
				return -1
			case x[i] > y[i]:
				return 1
			}
		}
	}
	switch {
	case len(x) < len(y):
		return -1
	case len(x) > len(y):
		return 1
	}
	return 0
}

func (a *refAccel) caseConvert(subject []byte, lo, hi byte, delta int) []byte {
	a.stats.Ops++
	out := make([]byte, len(subject))
	for base := 0; base < len(subject); base += a.cfg.BlockBytes {
		end := min(base+a.cfg.BlockBytes, len(subject))
		a.charge(end-base, 1)
		for i := base; i < end; i++ {
			c := subject[i]
			if c >= lo && c <= hi {
				c = byte(int(c) + delta)
			}
			out[i] = c
		}
	}
	if len(subject) == 0 {
		a.charge(0, 1)
	}
	return out
}

func (a *refAccel) Translate(subject, from, to []byte) ([]byte, bool) {
	if len(from) > a.cfg.Rows {
		a.stats.Bypasses++
		return a.sw.Translate(subject, from, to), false
	}
	a.stats.Ops++
	out := make([]byte, len(subject))
	for base := 0; base < len(subject); base += a.cfg.BlockBytes {
		end := min(base+a.cfg.BlockBytes, len(subject))
		a.charge(end-base, max(len(from), 1))
		for i := base; i < end; i++ {
			c := subject[i]
			for r := range from {
				if subject[i] == from[r] {
					c = to[r] // no break: the last row wins
				}
			}
			out[i] = c
		}
	}
	return out, true
}

func (a *refAccel) Trim(subject []byte, cutset []byte) []byte {
	a.stats.Ops++
	lo, hi := 0, len(subject)
	edge := 0
	for lo < hi && bytes.IndexByte(cutset, subject[lo]) >= 0 {
		lo++
		edge++
	}
	for hi > lo && bytes.IndexByte(cutset, subject[hi-1]) >= 0 {
		hi--
		edge++
	}
	blocks := (edge+a.cfg.BlockBytes-1)/a.cfg.BlockBytes + 1
	for i := 0; i < blocks; i++ {
		n := min(edge, a.cfg.BlockBytes)
		a.charge(n, max(len(cutset), 1))
		edge -= n
	}
	return subject[lo:hi]
}

func (a *refAccel) Replace(subject, old, new []byte) ([]byte, int, bool) {
	if len(old) > a.cfg.Rows || len(old) == 0 {
		a.stats.Bypasses++
		out, n := a.sw.Replace(subject, old, new)
		return out, n, false
	}
	a.stats.Ops++
	var out []byte
	count := 0
	pos := 0
	for pos < len(subject) {
		rel := a.matchScan(subject[pos:], old)
		if rel < 0 {
			out = append(out, subject[pos:]...)
			break
		}
		out = append(out, subject[pos:pos+rel]...)
		out = append(out, new...)
		pos += rel + len(old)
		count++
	}
	return out, count, true
}

func (a *refAccel) HTMLSpecialChars(subject []byte) []byte {
	a.stats.Ops++
	var out []byte
	for base := 0; base < len(subject); base += a.cfg.BlockBytes {
		end := min(base+a.cfg.BlockBytes, len(subject))
		a.charge(end-base, 4)
		for i := base; i < end; i++ {
			switch subject[i] {
			case '&':
				out = append(out, "&amp;"...)
			case '<':
				out = append(out, "&lt;"...)
			case '>':
				out = append(out, "&gt;"...)
			case '"':
				out = append(out, "&quot;"...)
			default:
				out = append(out, subject[i])
			}
		}
	}
	return out
}

func (a *refAccel) HintVector(subject []byte, segSize int) []uint64 {
	a.stats.Ops++
	nblocks := max((len(subject)+a.cfg.BlockBytes-1)/a.cfg.BlockBytes, 1)
	for i := 0; i < nblocks; i++ {
		n := min(a.cfg.BlockBytes, len(subject)-i*a.cfg.BlockBytes)
		a.charge(n, a.cfg.InequalityRows)
	}
	return strlib.ClassScanRef(subject, segSize)
}

func (a *refAccel) NL2BR(subject []byte) []byte {
	a.stats.Ops++
	a.chargeBlocks(len(subject), 2)
	var out []byte
	for i := 0; i < len(subject); i++ {
		c := subject[i]
		if c == '\r' || c == '\n' {
			out = append(out, "<br />"...)
			out = append(out, c)
			if c == '\r' && i+1 < len(subject) && subject[i+1] == '\n' {
				out = append(out, '\n')
				i++
			}
			continue
		}
		out = append(out, c)
	}
	return out
}

func (a *refAccel) AddSlashes(subject []byte) []byte {
	a.stats.Ops++
	var out []byte
	for base := 0; base < len(subject); base += a.cfg.BlockBytes {
		end := min(base+a.cfg.BlockBytes, len(subject))
		a.charge(end-base, 4)
		for i := base; i < end; i++ {
			switch c := subject[i]; c {
			case '\'', '"', '\\':
				out = append(out, '\\', c)
			case 0:
				out = append(out, '\\', '0')
			default:
				out = append(out, c)
			}
		}
	}
	return out
}

func (a *refAccel) ConfigureRows(rows MatrixConfig) {
	a.stats.ConfigLoads++
	a.cur = MatrixConfig{rows: append([]row(nil), rows.rows...)}
}

func (a *refAccel) ApplyConfigured(subject []byte) ([]byte, bool) {
	if len(a.cur.rows) == 0 || len(a.cur.rows) > a.cfg.Rows {
		a.stats.Bypasses++
		return nil, false
	}
	a.stats.Ops++
	out := make([]byte, len(subject))
	for base := 0; base < len(subject); base += a.cfg.BlockBytes {
		end := min(base+a.cfg.BlockBytes, len(subject))
		a.charge(end-base, len(a.cur.rows))
		for i := base; i < end; i++ {
			c := subject[i]
			for _, r := range a.cur.rows {
				if r.matches(c) {
					switch r.kind {
					case rowEq, rowSet:
						c = r.sub
					case rowRange:
						c = byte(int(c) + int(int8(r.sub)))
					}
					break
				}
			}
			out[i] = c
		}
	}
	return out, true
}

// oracleOp is one accelerator operation driven by a subject and a second
// operand p (pattern, comparand, table, cutset or row source), run three
// ways: on Accel, on the cell-level oracle, and in software where strlib
// has the function. Each returns its result rendered as a string.
type oracleOp struct {
	name  string
	accel func(a *Accel, s, p []byte) string
	ref   func(r *refAccel, s, p []byte) string
	sw    func(l *strlib.Lib, s, p []byte) string // nil: no strlib counterpart
}

var replacement = []byte("<r>")

// reversed returns p back to front: a translate table whose repeated
// source characters map to different outputs.
func reversed(p []byte) []byte {
	out := make([]byte, len(p))
	for i, c := range p {
		out[len(p)-1-i] = c
	}
	return out
}

// oracleRows configures equality rows from consecutive pairs of p, then a
// lower-to-upper range row, so rows can overlap and the first must win.
func oracleRows(p []byte) MatrixConfig {
	var cfgs []MatrixConfig
	for i := 0; i+1 < len(p); i += 2 {
		cfgs = append(cfgs, EqRow(p[i], p[i+1]))
	}
	return Merge(append(cfgs, RangeRow('a', 'z', 0xE0))...)
}

func show(b []byte, ok bool) string { return fmt.Sprintf("%q hw=%v", b, ok) }

var oracleOps = []oracleOp{
	{"find",
		func(a *Accel, s, p []byte) string { i, _ := a.Find(s, p); return strconv.Itoa(i) },
		func(r *refAccel, s, p []byte) string { i, _ := r.Find(s, p); return strconv.Itoa(i) },
		func(l *strlib.Lib, s, p []byte) string { return strconv.Itoa(l.Find(s, p)) }},
	{"replace",
		func(a *Accel, s, p []byte) string {
			o, n, _ := a.Replace(s, p, replacement)
			return fmt.Sprintf("%q %d", o, n)
		},
		func(r *refAccel, s, p []byte) string {
			o, n, _ := r.Replace(s, p, replacement)
			return fmt.Sprintf("%q %d", o, n)
		},
		func(l *strlib.Lib, s, p []byte) string {
			o, n := l.Replace(s, p, replacement)
			return fmt.Sprintf("%q %d", o, n)
		}},
	{"compare",
		func(a *Accel, s, p []byte) string { return strconv.Itoa(a.Compare(s, p)) },
		func(r *refAccel, s, p []byte) string { return strconv.Itoa(r.Compare(s, p)) },
		func(l *strlib.Lib, s, p []byte) string { return strconv.Itoa(l.Compare(s, p)) }},
	{"translate",
		func(a *Accel, s, p []byte) string { o, _ := a.Translate(s, p, reversed(p)); return string(o) },
		func(r *refAccel, s, p []byte) string { o, _ := r.Translate(s, p, reversed(p)); return string(o) },
		func(l *strlib.Lib, s, p []byte) string { return string(l.Translate(s, p, reversed(p))) }},
	{"trim",
		func(a *Accel, s, p []byte) string { return string(a.Trim(s, p)) },
		func(r *refAccel, s, p []byte) string { return string(r.Trim(s, p)) },
		func(l *strlib.Lib, s, p []byte) string { return string(strlib.TrimSet(s, p)) }},
	{"toupper",
		func(a *Accel, s, _ []byte) string { return string(a.ToUpper(s)) },
		func(r *refAccel, s, _ []byte) string { return string(r.caseConvert(s, 'a', 'z', -32)) },
		func(l *strlib.Lib, s, _ []byte) string { return string(l.ToUpper(s)) }},
	{"tolower",
		func(a *Accel, s, _ []byte) string { return string(a.ToLower(s)) },
		func(r *refAccel, s, _ []byte) string { return string(r.caseConvert(s, 'A', 'Z', +32)) },
		func(l *strlib.Lib, s, _ []byte) string { return string(l.ToLower(s)) }},
	{"htmlspecialchars",
		func(a *Accel, s, _ []byte) string { return string(a.HTMLSpecialChars(s)) },
		func(r *refAccel, s, _ []byte) string { return string(r.HTMLSpecialChars(s)) },
		func(l *strlib.Lib, s, _ []byte) string { return string(l.HTMLSpecialChars(s)) }},
	{"addslashes",
		func(a *Accel, s, _ []byte) string { return string(a.AddSlashes(s)) },
		func(r *refAccel, s, _ []byte) string { return string(r.AddSlashes(s)) },
		func(l *strlib.Lib, s, _ []byte) string { return string(l.AddSlashes(s)) }},
	{"nl2br",
		func(a *Accel, s, _ []byte) string { return string(a.NL2BR(s)) },
		func(r *refAccel, s, _ []byte) string { return string(r.NL2BR(s)) },
		func(l *strlib.Lib, s, _ []byte) string { return string(l.NL2BR(s)) }},
	{"hintvector",
		func(a *Accel, s, p []byte) string { return fmt.Sprint(a.HintVector(s, len(p))) },
		func(r *refAccel, s, p []byte) string { return fmt.Sprint(r.HintVector(s, len(p))) },
		func(l *strlib.Lib, s, p []byte) string { return fmt.Sprint(l.ClassScan(s, len(p))) }},
	{"applyconfigured",
		func(a *Accel, s, p []byte) string { a.ConfigureRows(oracleRows(p)); return show(a.ApplyConfigured(s)) },
		func(r *refAccel, s, p []byte) string {
			r.ConfigureRows(oracleRows(p))
			return show(r.ApplyConfigured(s))
		},
		nil},
}

// OracleDiff runs every operation on (s, p) with a fresh Accel and a
// fresh cell-level oracle of configuration cfg and describes each
// disagreement: a result that differs from the oracle's or from
// strlib's, or Stats that differ from the oracle's. It is exported for
// the fuzz target in package straccel_test.
func OracleDiff(cfg Config, s, p []byte) []string {
	var diffs []string
	for _, op := range oracleOps {
		a, r := New(cfg), newRef(cfg)
		got, want := op.accel(a, s, p), op.ref(r, s, p)
		if got != want {
			diffs = append(diffs, fmt.Sprintf("%s: result %s, oracle %s", op.name, got, want))
		}
		if op.sw != nil {
			if sw := op.sw(&strlib.Lib{}, s, p); got != sw {
				diffs = append(diffs, fmt.Sprintf("%s: result %s, strlib %s", op.name, got, sw))
			}
		}
		if a.Stats() != r.stats {
			diffs = append(diffs, fmt.Sprintf("%s: stats %+v, oracle %+v", op.name, a.Stats(), r.stats))
		}
	}
	return diffs
}

// oracleCases are the subjects and second operands the cell-level model
// is most likely to disagree with closed-form charges on.
func oracleCases(cfg Config) map[string][2][]byte {
	x := func(n int) []byte { return bytes.Repeat([]byte("x"), n) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	rows := bytes.Repeat([]byte("ab"), cfg.Rows/2+1)
	b := cfg.BlockBytes
	return map[string][2][]byte{
		"match ends at byte 63":     {cat(x(b-3), []byte("ab"), x(100)), []byte("ab")},
		"match ends at byte 64":     {cat(x(b-2), []byte("ab"), x(100)), []byte("ab")},
		"match ends at byte 65":     {cat(x(b-1), []byte("ab"), x(100)), []byte("ab")},
		"pattern spans block edge":  {cat(x(b-2), []byte("needle"), x(10)), []byte("needle")},
		"miss":                      {cat(x(3*b+5), []byte("abc")), []byte("abd")},
		"pattern length 1":          {cat(x(b+7), []byte("<b>&\"\n\r\n"), x(b)), []byte("<")},
		"pattern length Rows":       {cat(x(2*b-5), rows[:cfg.Rows], x(3)), rows[:cfg.Rows]},
		"pattern too long":          {cat(x(b), rows[:cfg.Rows+1]), rows[:cfg.Rows+1]},
		"replace aaaa/aa":           {[]byte("aaaa"), []byte("aa")},
		"replace grid restarts":     {cat(x(b-1), []byte("a"), x(b), []byte("a"), x(b+1)), []byte("a")},
		"compare differs at edge-1": {cat(x(b-1), []byte("a"), x(5)), cat(x(b-1), []byte("b"), x(5))},
		"compare differs at edge":   {cat(x(b), []byte("a")), cat(x(b), []byte("b"), x(3))},
		"compare prefix":            {x(2*b + 1), x(b)},
		"compare equal":             {x(b), x(b)},
		"trim edges":                {cat([]byte(" \t"), x(b), bytes.Repeat([]byte(" "), b+1)), []byte(" \t\n")},
		"empty subject":             {nil, []byte("ab")},
		"empty both":                {nil, nil},
	}
}

func TestOracleCases(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), {Rows: 4, InequalityRows: 2, BlockBytes: 8}} {
		for name, c := range oracleCases(cfg) {
			for _, d := range OracleDiff(cfg, c[0], c[1]) {
				t.Errorf("%+v %s: %s", cfg, name, d)
			}
		}
	}
}

// TestEmptySubjectCharges pins how many passes each operation issues
// over an empty subject. Some issue none and some one; the asymmetry is
// part of the simulated cycle counts, so it is kept as it is.
func TestEmptySubjectCharges(t *testing.T) {
	a := New(DefaultConfig())
	a.ConfigureRows(EqRow('a', 'b'))
	for _, c := range []struct {
		name   string
		run    func()
		blocks int64
	}{
		{"find", func() { a.Find(nil, []byte("ab")) }, 0},
		{"replace", func() { a.Replace(nil, []byte("ab"), []byte("x")) }, 0},
		{"compare", func() { a.Compare(nil, nil) }, 0},
		{"translate", func() { a.Translate(nil, []byte("a"), []byte("b")) }, 0},
		{"addslashes", func() { a.AddSlashes(nil) }, 0},
		{"htmlspecialchars", func() { a.HTMLSpecialChars(nil) }, 0},
		{"applyconfigured", func() { a.ApplyConfigured(nil) }, 0},
		{"toupper", func() { a.ToUpper(nil) }, 1},
		{"tolower", func() { a.ToLower(nil) }, 1},
		{"trim", func() { a.Trim(nil, []byte(" ")) }, 1},
		{"nl2br", func() { a.NL2BR(nil) }, 1},
		{"hintvector", func() { a.HintVector(nil, 32) }, 1},
	} {
		a.ResetStats()
		c.run()
		if st := a.Stats(); st.Blocks != c.blocks || st.Bytes != 0 || st.Ops != 1 {
			t.Errorf("%s on an empty subject: %+v, want %d blocks", c.name, st, c.blocks)
		}
	}
}

func TestTranslateLastDuplicateWins(t *testing.T) {
	var sw strlib.Lib
	for _, cfg := range []Config{DefaultConfig(), {Rows: 1}} { // hardware and bypass
		a := New(cfg)
		got, _ := a.Translate([]byte("abc"), []byte("aa"), []byte("xy"))
		if want := sw.Translate([]byte("abc"), []byte("aa"), []byte("xy")); string(got) != "ybc" || string(want) != "ybc" {
			t.Errorf("Rows=%d: strtr(abc, aa, xy) = %q, strlib %q, want ybc", cfg.Rows, got, want)
		}
	}
}
