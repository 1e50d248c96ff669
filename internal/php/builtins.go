package php

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/hashmap"
	"repro/internal/isa"
	"repro/internal/regex"
	"repro/internal/vm"
)

// evalCall dispatches a call expression: user functions first, then the
// built-in library. Built-ins route through the vm.Runtime so the string,
// hash, heap, and regexp work they do is metered and accelerated.
func (in *Interp) evalCall(n *callExpr, f *frame) (interface{}, error) {
	if fd, ok := in.prog.funcs[n.name]; ok {
		args, err := in.evalArgs(n.args, f)
		if err != nil {
			return nil, err
		}
		return in.callFn(fd, args)
	}
	if in.rt.Tracing() { // skip the name concat on the unsampled path
		in.rt.BeginSpan("php:" + n.name)
		defer in.rt.EndSpan()
	}

	// Special forms that inspect their argument expressions.
	switch n.name {
	case "isset":
		if len(n.args) != 1 {
			return nil, errArity(n, 1)
		}
		v, err := in.eval(n.args[0], f)
		if err != nil {
			return nil, err
		}
		return v != nil, nil
	case "unset":
		if len(n.args) != 1 {
			return nil, errArity(n, 1)
		}
		ix, ok := n.args[0].(*indexExpr)
		if !ok {
			if v, ok := n.args[0].(*varExpr); ok {
				delete(f.vars, v.name)
				return nil, nil
			}
			return nil, fmt.Errorf("php: line %d: unset expects a variable or element", n.line)
		}
		subject, err := in.eval(ix.subject, f)
		if err != nil {
			return nil, err
		}
		arr, ok := subject.(*vm.Array)
		if !ok {
			return nil, nil
		}
		k, _, err := in.evalKey(ix.key, f)
		if err != nil {
			return nil, err
		}
		in.rt.ADelete(f.fn, arr, k)
		return nil, nil
	case "extract":
		// The §4.2 pattern: import an array's pairs into the local scope
		// using dynamic key names.
		if len(n.args) != 1 {
			return nil, errArity(n, 1)
		}
		v, err := in.eval(n.args[0], f)
		if err != nil {
			return nil, err
		}
		arr, ok := v.(*vm.Array)
		if !ok {
			return int64(0), nil
		}
		count := int64(0)
		in.rt.AForeach(fnExtract, arr, func(k hashmap.Key, v interface{}) bool {
			if !k.IsInt {
				f.vars[k.Str] = v
				count++
			}
			return true
		})
		return count, nil
	}

	args, err := in.evalArgs(n.args, f)
	if err != nil {
		return nil, err
	}
	fn, ok := builtins[n.name]
	if !ok {
		return nil, fmt.Errorf("php: line %d: call to undefined function %s()", n.line, n.name)
	}
	return fn(in, f, n, args)
}

func (in *Interp) evalArgs(args []expr, f *frame) ([]interface{}, error) {
	out := make([]interface{}, len(args))
	for i, a := range args {
		v, err := in.eval(a, f)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func errArity(n *callExpr, want int) error {
	return fmt.Errorf("php: line %d: %s() expects %d argument(s), got %d", n.line, n.name, want, len(n.args))
}

type builtinFn func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error)

// builtins maps PHP function names to implementations. String and regexp
// functions call the runtime's accelerated operations; array functions
// operate on vm.Array handles.
var builtins = map[string]builtinFn{
	// --- strings (accelerated) ---
	"strlen": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 1 {
			return nil, errArity(n, 1)
		}
		return int64(len(in.str(args[0], f))), nil
	},
	"strtoupper": stringOp1(func(in *Interp, f *frame, s []byte) []byte { return in.rt.ToUpper(f.fn, s) }),
	"strtolower": stringOp1(func(in *Interp, f *frame, s []byte) []byte { return in.rt.ToLower(f.fn, s) }),
	"trim":       stringOp1(func(in *Interp, f *frame, s []byte) []byte { return in.rt.Trim(f.fn, s) }),
	"nl2br":      stringOp1(func(in *Interp, f *frame, s []byte) []byte { return in.rt.NL2BR(f.fn, s) }),
	"addslashes": stringOp1(func(in *Interp, f *frame, s []byte) []byte { return in.rt.AddSlashes(f.fn, s) }),
	"htmlspecialchars": stringOp1(func(in *Interp, f *frame, s []byte) []byte {
		return in.rt.EscapeHTML(f.fn, s)
	}),
	"str_replace": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 3 {
			return nil, errArity(n, 3)
		}
		search, repl, subject := in.str(args[0], f), in.str(args[1], f), in.str(args[2], f)
		return string(in.rt.Replace(f.fn, []byte(subject), []byte(search), []byte(repl))), nil
	},
	"strpos": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 2 {
			return nil, errArity(n, 2)
		}
		pos := in.rt.Find(f.fn, []byte(in.str(args[0], f)), []byte(in.str(args[1], f)))
		if pos < 0 {
			return false, nil
		}
		return int64(pos), nil
	},
	"strcmp": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 2 {
			return nil, errArity(n, 2)
		}
		return int64(in.rt.Compare(f.fn, []byte(in.str(args[0], f)), []byte(in.str(args[1], f)))), nil
	},
	"strtr": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 3 {
			return nil, errArity(n, 3)
		}
		from, to := in.str(args[1], f), in.str(args[2], f)
		if len(from) != len(to) {
			return nil, fmt.Errorf("php: line %d: strtr tables must have equal length", n.line)
		}
		return string(in.rt.Translate(f.fn, []byte(in.str(args[0], f)), []byte(from), []byte(to))), nil
	},
	"substr": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) < 2 || len(args) > 3 {
			return nil, errArity(n, 2)
		}
		s := in.str(args[0], f)
		start := int(toInt(args[1]))
		if start < 0 {
			start += len(s)
		}
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return "", nil
		}
		end := len(s)
		if len(args) == 3 {
			l := int(toInt(args[2]))
			if l < 0 {
				end += l
			} else if start+l < end {
				end = start + l
			}
		}
		if end < start {
			end = start
		}
		return s[start:end], nil
	},
	"str_repeat": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 2 {
			return nil, errArity(n, 2)
		}
		count := int(toInt(args[1]))
		if count < 0 || count > 1<<20 {
			return nil, fmt.Errorf("php: line %d: str_repeat count out of range", n.line)
		}
		return strings.Repeat(in.str(args[0], f), count), nil
	},
	"implode": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 2 {
			return nil, errArity(n, 2)
		}
		glue := in.str(args[0], f)
		arr, ok := args[1].(*vm.Array)
		if !ok {
			return nil, fmt.Errorf("php: line %d: implode expects an array", n.line)
		}
		var parts [][]byte
		in.rt.AForeach(f.fn, arr, func(k hashmap.Key, v interface{}) bool {
			if len(parts) > 0 {
				parts = append(parts, []byte(glue))
			}
			parts = append(parts, []byte(in.toString(v, f)))
			return true
		})
		return string(in.rt.Concat(f.fn, parts...)), nil
	},
	"explode": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 2 {
			return nil, errArity(n, 2)
		}
		delim, s := in.str(args[0], f), in.str(args[1], f)
		if delim == "" {
			return nil, fmt.Errorf("php: line %d: explode with empty delimiter", n.line)
		}
		arr := in.newArray(f)
		for i, part := range strings.Split(s, delim) {
			in.rt.ASet(f.fn, arr, hashmap.IntKey(int64(i)), part, false)
		}
		return arr, nil
	},
	"sprintf": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) < 1 {
			return nil, errArity(n, 1)
		}
		return phpSprintf(in, f, in.str(args[0], f), args[1:]), nil
	},

	// --- regexps (accelerated) ---
	"preg_replace": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 3 {
			return nil, errArity(n, 3)
		}
		re, err := in.compilePattern(in.str(args[0], f), n.line)
		if err != nil {
			return nil, err
		}
		subject := in.str(args[2], f)
		cpu := in.rt.CPU()
		if cpu.RA == nil {
			out, _ := cpu.RegexReplaceAll(f.fn, re, []byte(subject), []byte(in.str(args[1], f)))
			return string(out), nil
		}
		hv := in.hintFor(f, re, subject)
		out, newHV, _ := cpu.RegexShadowReplace(f.fn, re, []byte(subject), []byte(in.str(args[1], f)), hv)
		in.lastContent, in.lastHV = string(out), newHV
		return string(out), nil
	},
	"preg_match": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 2 {
			return nil, errArity(n, 2)
		}
		re, err := in.compilePattern(in.str(args[0], f), n.line)
		if err != nil {
			return nil, err
		}
		if len(in.pregMatches(f, re, in.str(args[1], f))) > 0 {
			return int64(1), nil
		}
		return int64(0), nil
	},
	"preg_match_all": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 2 {
			return nil, errArity(n, 2)
		}
		re, err := in.compilePattern(in.str(args[0], f), n.line)
		if err != nil {
			return nil, err
		}
		return int64(len(in.pregMatches(f, re, in.str(args[1], f)))), nil
	},
	"preg_split": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 2 {
			return nil, errArity(n, 2)
		}
		re, err := in.compilePattern(in.str(args[0], f), n.line)
		if err != nil {
			return nil, err
		}
		subject := []byte(in.str(args[1], f))
		ms := in.rt.CPU().RegexFindAll(f.fn, re, subject)
		arr := in.newArray(f)
		prev, idx := 0, int64(0)
		for _, m := range ms {
			in.rt.ASet(f.fn, arr, hashmap.IntKey(idx), string(subject[prev:m.Start]), false)
			idx++
			prev = m.End
		}
		in.rt.ASet(f.fn, arr, hashmap.IntKey(idx), string(subject[prev:]), false)
		return arr, nil
	},

	// --- arrays ---
	"count": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 1 {
			return nil, errArity(n, 1)
		}
		if arr, ok := args[0].(*vm.Array); ok {
			return int64(in.rt.ASize(f.fn, arr)), nil
		}
		return int64(1), nil
	},
	"array_keys": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 1 {
			return nil, errArity(n, 1)
		}
		arr, ok := args[0].(*vm.Array)
		if !ok {
			return nil, fmt.Errorf("php: line %d: array_keys expects an array", n.line)
		}
		out := in.newArray(f)
		i := int64(0)
		in.rt.AForeach(f.fn, arr, func(k hashmap.Key, v interface{}) bool {
			in.rt.ASet(f.fn, out, hashmap.IntKey(i), keyValue(k), false)
			i++
			return true
		})
		return out, nil
	},
	"array_values": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 1 {
			return nil, errArity(n, 1)
		}
		arr, ok := args[0].(*vm.Array)
		if !ok {
			return nil, fmt.Errorf("php: line %d: array_values expects an array", n.line)
		}
		out := in.newArray(f)
		i := int64(0)
		in.rt.AForeach(f.fn, arr, func(k hashmap.Key, v interface{}) bool {
			in.rt.ASet(f.fn, out, hashmap.IntKey(i), v, false)
			i++
			return true
		})
		return out, nil
	},
	"array_key_exists": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 2 {
			return nil, errArity(n, 2)
		}
		arr, ok := args[1].(*vm.Array)
		if !ok {
			return false, nil
		}
		k := toKey(args[0])
		_, found := in.rt.AGet(fnArrayKeyExists, arr, k, true)
		return found, nil
	},
	"in_array": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 2 {
			return nil, errArity(n, 2)
		}
		arr, ok := args[1].(*vm.Array)
		if !ok {
			return false, nil
		}
		found := false
		in.rt.AForeach(f.fn, arr, func(k hashmap.Key, v interface{}) bool {
			if looseEq(v, args[0]) {
				found = true
				return false
			}
			return true
		})
		return found, nil
	},
	"array_merge": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		out := in.newArray(f)
		auto := int64(0)
		for _, a := range args {
			arr, ok := a.(*vm.Array)
			if !ok {
				return nil, fmt.Errorf("php: line %d: array_merge expects arrays", n.line)
			}
			in.rt.AForeach(f.fn, arr, func(k hashmap.Key, v interface{}) bool {
				if k.IsInt {
					in.rt.ASet(f.fn, out, hashmap.IntKey(auto), v, false)
					auto++
				} else {
					in.rt.ASet(f.fn, out, k, v, true)
				}
				return true
			})
		}
		return out, nil
	},

	// --- misc ---
	"intval": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 1 {
			return nil, errArity(n, 1)
		}
		return toInt(args[0]), nil
	},
	"strval": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 1 {
			return nil, errArity(n, 1)
		}
		return in.toString(args[0], f), nil
	},
	"abs": func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 1 {
			return nil, errArity(n, 1)
		}
		if x, ok := args[0].(int64); ok {
			if x < 0 {
				return -x, nil
			}
			return x, nil
		}
		x := toFloat(args[0])
		if x < 0 {
			return -x, nil
		}
		return x, nil
	},
	"max": reduce2(func(a, b interface{}) bool { return compare(a, b) >= 0 }),
	"min": reduce2(func(a, b interface{}) bool { return compare(a, b) <= 0 }),
}

// stringOp1 adapts a one-subject runtime string op into a builtin.
func stringOp1(op func(in *Interp, f *frame, s []byte) []byte) builtinFn {
	return func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) != 1 {
			return nil, errArity(n, 1)
		}
		return string(op(in, f, []byte(in.str(args[0], f)))), nil
	}
}

// reduce2 adapts a binary keep-left predicate into max/min over args.
func reduce2(keepLeft func(a, b interface{}) bool) builtinFn {
	return func(in *Interp, f *frame, n *callExpr, args []interface{}) (interface{}, error) {
		if len(args) == 0 {
			return nil, errArity(n, 1)
		}
		best := args[0]
		for _, a := range args[1:] {
			if !keepLeft(best, a) {
				best = a
			}
		}
		return best, nil
	}
}

// str coerces a value to string for builtin arguments.
func (in *Interp) str(v interface{}, f *frame) string { return in.toString(v, f) }

func toKey(v interface{}) hashmap.Key {
	switch k := v.(type) {
	case int64:
		return hashmap.IntKey(k)
	case string:
		return hashmap.StrKey(k)
	default:
		return hashmap.StrKey(fmt.Sprint(v))
	}
}

// compilePattern strips PHP's pattern delimiters (/.../ with optional
// trailing flags, which are rejected except the no-op 'u') and compiles
// through the runtime's regexp manager.
func (in *Interp) compilePattern(pat string, line int) (*regexHandle, error) {
	if len(pat) < 2 {
		return nil, fmt.Errorf("php: line %d: malformed pattern %q", line, pat)
	}
	delim := pat[0]
	end := strings.LastIndexByte(pat[1:], delim)
	if end < 0 {
		return nil, fmt.Errorf("php: line %d: unterminated pattern %q", line, pat)
	}
	body := pat[1 : 1+end]
	flags := pat[2+end:]
	for _, fl := range flags {
		if fl != 'u' {
			return nil, fmt.Errorf("php: line %d: unsupported pattern flag %q", line, fl)
		}
	}
	return in.rt.Regex(fnPCRECompile, body)
}

// regexHandle aliases the engine's compiled pattern type.
type regexHandle = regex.Regex

// hintFor returns the hint vector for subject, generating it with a
// sieve scan when the content was not produced by the previous regexp.
func (in *Interp) hintFor(f *frame, re *regexHandle, subject string) *isa.HV {
	if subject == in.lastContent && in.lastHV != nil && in.lastHV.Covers(len(subject)) {
		return in.lastHV
	}
	_, hv := in.rt.CPU().RegexSieve(f.fn, re, []byte(subject))
	in.lastContent, in.lastHV = subject, hv
	return hv
}

// pregMatches runs a scan, sifted when a hint vector is available.
func (in *Interp) pregMatches(f *frame, re *regexHandle, subject string) []regex.MatchRange {
	cpu := in.rt.CPU()
	if cpu.RA == nil {
		return cpu.RegexFindAll(f.fn, re, []byte(subject))
	}
	hv := in.hintFor(f, re, subject)
	return cpu.RegexShadow(f.fn, re, []byte(subject), hv)
}

// phpSprintf implements a %s/%d/%f/%% subset of sprintf.
func phpSprintf(in *Interp, f *frame, format string, args []interface{}) string {
	var sb strings.Builder
	ai := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' || i+1 >= len(format) {
			sb.WriteByte(c)
			continue
		}
		i++
		switch format[i] {
		case '%':
			sb.WriteByte('%')
		case 's':
			if ai < len(args) {
				sb.WriteString(in.toString(args[ai], f))
				ai++
			}
		case 'd':
			if ai < len(args) {
				sb.WriteString(strconv.FormatInt(toInt(args[ai]), 10))
				ai++
			}
		case 'f':
			if ai < len(args) {
				sb.WriteString(strconv.FormatFloat(toFloat(args[ai]), 'f', 6, 64))
				ai++
			}
		default:
			sb.WriteByte('%')
			sb.WriteByte(format[i])
		}
	}
	return sb.String()
}
