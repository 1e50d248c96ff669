package straccel

// Additional stringop implementations sharing the same sub-blocks:
// equality rows detect the characters of interest, the priority encoder
// locates them, and the output/shifting logic splices the expansions.

// NL2BR implements stringop[nl2br] (PHP nl2br): equality rows match \r
// and \n; the shifting logic inserts "<br />" before each break, and the
// wrap-around glue logic pairs a \r\n even across a block boundary, so
// the pair receives one break, as in PHP.
func (a *Accel) NL2BR(subject []byte) []byte {
	a.stats.Ops++
	a.charge(max(a.blocks(len(subject)), 1), len(subject), 2)
	return a.sw.NL2BR(subject)
}

// AddSlashes implements stringop[addslashes]: equality rows for quote,
// double quote, backslash, and NUL; output logic emits the escape pairs.
func (a *Accel) AddSlashes(subject []byte) []byte {
	a.stats.Ops++
	a.charge(a.blocks(len(subject)), len(subject), 4)
	return a.sw.AddSlashes(subject)
}

// ConfigureRows loads an explicit matching-matrix configuration — the
// strreadconfig path for complex functions whose rows are "large and may
// not be practical or feasible to pass as a source operand" (§4.6). The
// rows persist until the next LoadConfig/ConfigureRows.
func (a *Accel) ConfigureRows(rows MatrixConfig) {
	a.stats.ConfigLoads++
	a.cur = MatrixConfig{rows: append([]row(nil), rows.rows...)}
}

// EqRow builds an equality row with a substitution output.
func EqRow(match, sub byte) MatrixConfig {
	return MatrixConfig{rows: []row{{kind: rowEq, eq: match, sub: sub}}}
}

// RangeRow builds an inequality (range) row with a substitution delta.
func RangeRow(lo, hi byte, sub byte) MatrixConfig {
	return MatrixConfig{rows: []row{{kind: rowRange, lo: lo, hi: hi, sub: sub}}}
}

// Merge concatenates matrix configurations into one row set.
func Merge(cfgs ...MatrixConfig) MatrixConfig {
	var out MatrixConfig
	for _, c := range cfgs {
		out.rows = append(out.rows, c.rows...)
	}
	return out
}

// RowCount returns the number of configured rows.
func (m MatrixConfig) RowCount() int { return len(m.rows) }

// ApplyConfigured runs the currently configured rows over the subject:
// any byte matching a row is replaced by the row's substitution output
// (equality rows) or shifted by the substitution delta (range rows); the
// first matching row wins. This is the generic datapath behind
// translate-style complex functions. It returns false (software
// fallback) when no rows are configured or the configuration exceeds the
// matrix.
func (a *Accel) ApplyConfigured(subject []byte) ([]byte, bool) {
	if len(a.cur.rows) == 0 || len(a.cur.rows) > a.cfg.Rows {
		a.stats.Bypasses++
		return nil, false
	}
	a.stats.Ops++
	a.charge(a.blocks(len(subject)), len(subject), len(a.cur.rows))
	// The rows define one substitution per byte value; run it as a
	// translate table.
	var from, to [256]byte
	n := 0
	for c := 0; c < 256; c++ {
		for _, r := range a.cur.rows {
			if r.matches(byte(c)) {
				from[n], to[n] = byte(c), r.apply(byte(c))
				n++
				break
			}
		}
	}
	return a.sw.Translate(subject, from[:n], to[:n]), true
}
