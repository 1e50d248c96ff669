package sim

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestInternEqualNamesShareFn(t *testing.T) {
	a := Intern("intern_test_fn")
	b := Intern(strings.Clone("intern_test_fn"))
	c := Intern(fmt.Sprintf("intern_test_%s", "fn"))
	if a != b || a != c {
		t.Errorf("equal names interned to %d, %d, %d", a, b, c)
	}
	if d := Intern("intern_test_other"); d == a {
		t.Errorf("distinct names share Fn %d", d)
	}
	if a.String() != "intern_test_fn" {
		t.Errorf("String() = %q", a.String())
	}
	if Intern("") != 0 || Fn(0).String() != "" {
		t.Errorf("the zero Fn must be the empty name")
	}
}

// TestInternConcurrent interns overlapping names from several goroutines
// (PHP scripts compile and traces are read on serving goroutines) and
// requires one Fn per name.
func TestInternConcurrent(t *testing.T) {
	const workers, names = 8, 64
	got := make([][]Fn, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]Fn, names)
			for i := 0; i < names; i++ {
				j := (i + w*7) % names
				got[w][j] = Intern(fmt.Sprintf("intern_concurrent_%d", j))
				if s := got[w][j].String(); s != fmt.Sprintf("intern_concurrent_%d", j) {
					t.Errorf("Fn %d names %q", got[w][j], s)
				}
			}
		}(w)
	}
	wg.Wait()
	seen := map[Fn]bool{}
	for i := 0; i < names; i++ {
		for w := 1; w < workers; w++ {
			if got[w][i] != got[0][i] {
				t.Fatalf("name %d interned to %d and %d", i, got[0][i], got[w][i])
			}
		}
		if seen[got[0][i]] {
			t.Fatalf("Fn %d handed out twice", got[0][i])
		}
		seen[got[0][i]] = true
	}
}
