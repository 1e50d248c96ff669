// Package straccel implements the paper's generalized string accelerator
// (§4.4): a single datapath that serves many PHP string functions by
// sharing common hardware sub-blocks instead of dedicating an accelerator
// per function.
//
// Modeled sub-blocks (Fig. 10):
//
//   - ASCII compare plane: a matching matrix of configurable pattern rows
//     by subject-block columns, populated combinationally — every cell is
//     independent, so a whole block is compared per cycle.
//   - Diagonal AND gates: consecutive-character matches for multi-byte
//     patterns (string_find of "abc" in "babc" in the paper's example).
//   - Priority encoder: index of the first valid match.
//   - Output logic: forwards substituted ASCII values for functions that
//     write a result string (translate, case conversion, escaping).
//   - Shifting logic: aligns results to the destination offset.
//   - Wrap-around buffering: diagonal state carried between blocks so
//     matches spanning block boundaries are found.
//   - Six matrix rows support inequality (range) comparisons for
//     case-conversion and character-class operations.
//
// The accelerator processes Config.BlockBytes subject bytes per
// invocation step (the synthesized design handles a 64-character block in
// at most 3 cycles at 2 GHz); Stats records blocks and active matrix
// cells so the simulation can charge cycles and clock-gated energy.
//
// The matrix is modelled by its accounting, not its gates. Every result
// comes from the host kernels in internal/strlib, the same ones the
// software build runs, and each operation charges its blocks and cells in
// closed form from the subject length and, for the scanning operations,
// the position where the priority encoder fires: Find and Replace stop in
// the block holding the first match's last byte, Compare in the block
// holding the first difference. The cell-by-cell model these charges
// reproduce (diagonal state, wrap-around buffering, per-block passes) is
// kept only as the oracle in this package's tests.
package straccel

import (
	"repro/internal/strlib"
)

// Config sizes the matching matrix.
type Config struct {
	// Rows is the number of pattern rows (the longest pattern the matrix
	// holds at once).
	Rows int
	// InequalityRows is how many rows support range comparisons
	// (paper: 6).
	InequalityRows int
	// BlockBytes is the subject bytes processed per matrix pass
	// (paper: 64).
	BlockBytes int
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{Rows: 32, InequalityRows: 6, BlockBytes: 64}
}

func (c Config) sanitized() Config {
	if c.Rows <= 0 {
		c.Rows = 32
	}
	if c.InequalityRows < 0 {
		c.InequalityRows = 0
	}
	if c.InequalityRows > c.Rows {
		c.InequalityRows = c.Rows
	}
	if c.BlockBytes <= 0 {
		c.BlockBytes = 64
	}
	return c
}

// rowKind is a matching matrix row's comparison mode.
type rowKind uint8

const (
	rowEq    rowKind = iota // equality against one byte
	rowRange                // lo <= c <= hi (uses an inequality row)
	rowSet                  // membership in a small byte set (trim sets)
)

// row is one configured matrix row.
type row struct {
	kind rowKind
	eq   byte
	lo   byte
	hi   byte
	set  []byte
	sub  byte // substitution output for this row, when used
}

func (r row) matches(c byte) bool {
	switch r.kind {
	case rowEq:
		return c == r.eq
	case rowRange:
		return c >= r.lo && c <= r.hi
	default:
		for _, s := range r.set {
			if c == s {
				return true
			}
		}
		return false
	}
}

// apply returns the row's output for a byte it matches: the substitution
// byte for equality and set rows, c shifted by the signed substitution
// delta for range rows.
func (r row) apply(c byte) byte {
	if r.kind == rowRange {
		return byte(int(c) + int(int8(r.sub)))
	}
	return r.sub
}

// MatrixConfig is a saved matching-matrix configuration. strwriteconfig
// stores one before a context switch and strreadconfig restores it
// (§4.6); complex functions also load their row setup through it.
type MatrixConfig struct {
	rows []row
}

// Stats counts accelerator activity for cycle and energy accounting.
type Stats struct {
	Ops         int64 // accelerated string operations
	Blocks      int64 // matrix passes (one block of subject bytes each)
	Bytes       int64 // subject bytes streamed through the matrix
	ActiveCells int64 // matrix cells that actually switched
	GatedCells  int64 // cells clock-gated off (unused rows)
	Bypasses    int64 // operations that fell back to software
	ConfigLoads int64 // strreadconfig invocations
	ConfigSaves int64 // strwriteconfig invocations
}

// Accel is the string accelerator. Not safe for concurrent use; it is a
// per-core structure.
type Accel struct {
	cfg   Config
	cur   MatrixConfig
	stats Stats
	sw    strlib.Lib // host kernels computing every result; no observer
}

// New builds an accelerator.
func New(cfg Config) *Accel {
	return &Accel{cfg: cfg.sanitized()}
}

// SetMem routes result-string allocation through m — typically the
// owning core's request arena. Results then follow m's lifetime; see
// strlib.Allocator.
func (a *Accel) SetMem(m strlib.Allocator) { a.sw.Mem = m }

// Config returns the accelerator configuration.
func (a *Accel) Config() Config { return a.cfg }

// Stats returns a snapshot of the activity counters.
func (a *Accel) Stats() Stats { return a.stats }

// ResetStats clears the counters.
func (a *Accel) ResetStats() { a.stats = Stats{} }

// SaveConfig implements strwriteconfig: it returns the current matrix
// configuration for the OS to stash across a context switch.
func (a *Accel) SaveConfig() MatrixConfig {
	a.stats.ConfigSaves++
	saved := MatrixConfig{rows: append([]row(nil), a.cur.rows...)}
	return saved
}

// LoadConfig implements strreadconfig: it repopulates the matching matrix
// rows if they are not already configured.
func (a *Accel) LoadConfig(c MatrixConfig) {
	a.stats.ConfigLoads++
	a.cur = MatrixConfig{rows: append([]row(nil), c.rows...)}
}

// charge accounts nBlocks matrix passes that together stream n subject
// bytes through nRows active rows; the remaining rows are clock-gated.
func (a *Accel) charge(nBlocks, n, nRows int) {
	a.stats.Blocks += int64(nBlocks)
	a.stats.Bytes += int64(n)
	a.stats.ActiveCells += int64(n * nRows)
	a.stats.GatedCells += int64(n * (a.cfg.Rows - nRows))
}

// blocks returns the number of matrix passes that stream n bytes.
func (a *Accel) blocks(n int) int {
	return (n + a.cfg.BlockBytes - 1) / a.cfg.BlockBytes
}

// scan charges a left-to-right pass over an n-byte subject that the
// priority encoder ends once it fires on byte stop-1: every block up to
// and including the one holding that byte streams through the matrix.
// stop < 0 means it never fires and all n bytes stream.
func (a *Accel) scan(n, stop, nRows int) {
	if stop >= 0 {
		n = min(n, a.blocks(stop)*a.cfg.BlockBytes)
	}
	a.charge(a.blocks(n), n, nRows)
}

// Find implements stringop[find] (PHP strpos): the matrix rows hold the
// pattern, diagonal ANDs detect consecutive matches, and the priority
// encoder returns the first full-match position. Patterns longer than the
// matrix fall back to software.
func (a *Accel) Find(subject, pattern []byte) (int, bool) {
	pos := a.sw.Find(subject, pattern)
	if len(pattern) > a.cfg.Rows || len(pattern) == 0 {
		a.stats.Bypasses++
		return pos, false
	}
	a.stats.Ops++
	stop := -1
	if pos >= 0 {
		stop = pos + len(pattern)
	}
	a.scan(len(subject), stop, len(pattern))
	return pos, true
}

// Compare implements stringop[compare]: blocks of both strings are
// XOR-compared in parallel; the priority encoder finds the first
// difference.
func (a *Accel) Compare(x, y []byte) int {
	a.stats.Ops++
	n := min(len(x), len(y))
	d := strlib.Mismatch(x, y)
	stop := -1
	if d < n {
		stop = d + 1
	}
	a.scan(n, stop, 1)
	// x and y agree before d, so their order is that of what follows.
	return a.sw.Compare(x[d:], y[d:])
}

// ToUpper implements stringop[toupper] using an inequality row pair
// ('a' <= c <= 'z') and the output substitution logic.
func (a *Accel) ToUpper(subject []byte) []byte {
	a.stats.Ops++
	a.charge(max(a.blocks(len(subject)), 1), len(subject), 1)
	return a.sw.ToUpper(subject)
}

// ToLower implements stringop[tolower].
func (a *Accel) ToLower(subject []byte) []byte {
	a.stats.Ops++
	a.charge(max(a.blocks(len(subject)), 1), len(subject), 1)
	return a.sw.ToLower(subject)
}

// Translate implements stringop[translate] (PHP strtr with equal-length
// tables): one equality row per source character with its substitution
// output; as in PHP, the last row for a repeated source character wins.
// Tables wider than the matrix fall back to software. Panics if the
// tables differ in length.
func (a *Accel) Translate(subject, from, to []byte) ([]byte, bool) {
	out := a.sw.Translate(subject, from, to)
	if len(from) > a.cfg.Rows {
		a.stats.Bypasses++
		return out, false
	}
	a.stats.Ops++
	a.charge(a.blocks(len(subject)), len(subject), max(len(from), 1))
	return out, true
}

// Trim implements stringop[trim]: set-membership rows detect the trim
// characters; only the string's edges stream through the matrix, in one
// pass more than the edge bytes fill.
func (a *Accel) Trim(subject []byte, cutset []byte) []byte {
	a.stats.Ops++
	out := strlib.TrimSet(subject, cutset)
	edge := len(subject) - len(out)
	a.charge(a.blocks(edge)+1, edge, max(len(cutset), 1))
	return out
}

// Replace implements stringop[replace] (PHP str_replace) by combining the
// matching matrix with the shifting logic. Patterns wider than the matrix
// fall back to software.
func (a *Accel) Replace(subject, old, new []byte) ([]byte, int, bool) {
	out, count := a.sw.Replace(subject, old, new)
	if len(old) > a.cfg.Rows || len(old) == 0 {
		a.stats.Bypasses++
		return out, count, false
	}
	a.stats.Ops++
	// The matrix rescans from just past each match, its block grid
	// restarting there, and a final scan misses over the rest.
	pos := 0
	for range count {
		end := a.sw.Find(subject[pos:], old) + len(old)
		a.scan(len(subject)-pos, end, len(old))
		pos += end
	}
	if pos < len(subject) {
		a.scan(len(subject)-pos, -1, len(old))
	}
	return out, count, true
}

// HTMLSpecialChars implements the escaping operation PHP workloads run
// constantly: equality rows detect & < > ", the priority encoder locates
// them, and the shifting logic splices the entities into the output.
func (a *Accel) HTMLSpecialChars(subject []byte) []byte {
	a.stats.Ops++
	a.charge(a.blocks(len(subject)), len(subject), 4)
	return a.sw.HTMLSpecialChars(subject)
}

// HintVector generates the content-sifting HV for the regexp accelerator
// (§4.5): range rows classify each byte as regular or special, and the
// per-segment OR reduction produces one bit per segment. This is one of
// the "complex string functions" configured via strreadconfig.
func (a *Accel) HintVector(subject []byte, segSize int) []uint64 {
	a.stats.Ops++
	a.charge(max(a.blocks(len(subject)), 1), len(subject), a.cfg.InequalityRows)
	return strlib.ClassScanRef(subject, segSize)
}
