package sim

import "sync"

// Fn identifies a leaf function: a small integer interned once from the
// function's name. Equal names always intern to the same Fn, so a Meter
// keyed by (Fn, Category) attributes exactly as one keyed by (name,
// Category) would, while each charge indexes a dense slice instead of
// hashing a string. The zero Fn is the empty name.
//
// Intern where the program is built — a package-level var for a literal
// name, a table built with its owner, a PHP function at compile time —
// and pass the Fn down the charge path.
type Fn uint32

// fnRegistry is the process-wide, append-only name table behind Fn.
var fnRegistry = struct {
	mu    sync.Mutex
	ids   map[string]Fn
	names []string
}{ids: map[string]Fn{"": 0}, names: []string{""}}

// Intern returns the Fn for name, registering it on first use. It is
// safe for concurrent use.
func Intern(name string) Fn {
	r := &fnRegistry
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.ids[name]; ok {
		return f
	}
	f := Fn(len(r.names))
	r.ids[name] = f
	r.names = append(r.names, name)
	return f
}

// InternAll interns every name in order.
func InternAll(names []string) []Fn {
	out := make([]Fn, len(names))
	for i, n := range names {
		out[i] = Intern(n)
	}
	return out
}

// String returns the name f was interned from ("" for an Fn that was
// never handed out by Intern).
func (f Fn) String() string {
	r := &fnRegistry
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(f) < len(r.names) {
		return r.names[f]
	}
	return ""
}
