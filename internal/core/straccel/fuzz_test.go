package straccel_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core/straccel"
	"repro/internal/workload"
)

// FuzzStraccelVsStrlib checks every accelerator operation on arbitrary
// subjects and second operands: results must equal strlib's and the
// cell-level oracle's, and Stats the oracle's. A second, small matrix
// configuration puts block edges and the bypass threshold within reach
// of short inputs.
func FuzzStraccelVsStrlib(f *testing.F) {
	files, _ := filepath.Glob("../../../examples/*.php")
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src, []byte("echo"))
		f.Add(src, []byte("$"))
	}
	corpus := workload.NewCorpus(1, 3, 400)
	for i, post := range corpus.Posts {
		f.Add(post, corpus.Posts[(i+1)%len(corpus.Posts)][:8])
		f.Add(post, []byte("<b>"))
		f.Add(corpus.Comments[i], []byte("\r\n"))
	}
	f.Add([]byte("aaaa"), []byte("aa"))
	f.Add([]byte("abc"), []byte("aa"))
	cfgs := []straccel.Config{straccel.DefaultConfig(), {Rows: 4, InequalityRows: 2, BlockBytes: 8}}
	f.Fuzz(func(t *testing.T, s, p []byte) {
		for _, cfg := range cfgs {
			for _, d := range straccel.OracleDiff(cfg, s, p) {
				t.Errorf("%+v: %s", cfg, d)
			}
		}
	})
}
