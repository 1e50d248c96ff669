package php

import "repro/internal/sim"

// AST node types. Statements and expressions are separate interfaces so
// the interpreter can switch exhaustively over each.

type stmt interface{ stmtNode() }

type expr interface{ exprNode() }

// --- Statements ---

// echoStmt prints its arguments to the output buffer.
type echoStmt struct {
	args []expr
	line int
}

// inlineHTMLStmt emits literal HTML outside <?php ?>.
type inlineHTMLStmt struct {
	html string
}

// exprStmt evaluates an expression for its side effects.
type exprStmt struct {
	e    expr
	line int
}

// ifStmt covers if / elseif / else.
type ifStmt struct {
	cond expr
	then []stmt
	els  []stmt // nil, or the else/elseif chain
	line int
}

// whileStmt loops while cond is truthy.
type whileStmt struct {
	cond expr
	body []stmt
	line int
}

// forStmt is the classic for(init; cond; post) loop.
type forStmt struct {
	init, cond, post expr // each may be nil
	body             []stmt
	line             int
}

// foreachStmt iterates an array in insertion order.
type foreachStmt struct {
	subject expr
	keyVar  string // "" when no `$k =>` form
	valVar  string
	body    []stmt
	line    int
}

// funcDecl declares a user function.
type funcDecl struct {
	name   string
	fn     sim.Fn // name interned for cost attribution
	params []string
	body   []stmt
	line   int
}

// returnStmt exits the enclosing function.
type returnStmt struct {
	val  expr // nil for bare return
	line int
}

// breakStmt exits the innermost loop.
type breakStmt struct{ line int }

// continueStmt skips to the next loop iteration.
type continueStmt struct{ line int }

func (*echoStmt) stmtNode()       {}
func (*inlineHTMLStmt) stmtNode() {}
func (*exprStmt) stmtNode()       {}
func (*ifStmt) stmtNode()         {}
func (*whileStmt) stmtNode()      {}
func (*forStmt) stmtNode()        {}
func (*foreachStmt) stmtNode()    {}
func (*funcDecl) stmtNode()       {}
func (*returnStmt) stmtNode()     {}
func (*breakStmt) stmtNode()      {}
func (*continueStmt) stmtNode()   {}

// --- Expressions ---

// litExpr is a literal constant (nil, bool, int64, float64, or string).
type litExpr struct {
	val interface{}
}

// varExpr reads a variable.
type varExpr struct {
	name string
	line int
}

// assignExpr writes a variable or array element: target = value. op is
// "=" or a compound form (".=", "+=", ...).
type assignExpr struct {
	target expr // varExpr or indexExpr
	op     string
	value  expr
	line   int
}

// indexExpr reads an array element: subject[key]. A nil key is the
// append form `$a[] = v` (valid only as an assignment target).
type indexExpr struct {
	subject expr
	key     expr
	line    int
}

// binaryExpr is a binary operation.
type binaryExpr struct {
	op   string
	l, r expr
	line int
}

// unaryExpr is !x or -x.
type unaryExpr struct {
	op   string
	e    expr
	line int
}

// callExpr invokes a builtin or user function.
type callExpr struct {
	name string
	args []expr
	line int
}

// arrayLit is `[...]` or `array(...)`, items optionally keyed.
type arrayLit struct {
	keys []expr // nil entries mean auto-index
	vals []expr
	line int
}

// ternaryExpr is cond ? a : b.
type ternaryExpr struct {
	cond, then, els expr
	line            int
}

// incDecExpr is $x++ / $x-- / ++$x / --$x (value semantics simplified to
// post-evaluation of the new value).
type incDecExpr struct {
	target expr
	op     string // "++" or "--"
	line   int
}

func (*litExpr) exprNode()     {}
func (*varExpr) exprNode()     {}
func (*assignExpr) exprNode()  {}
func (*indexExpr) exprNode()   {}
func (*binaryExpr) exprNode()  {}
func (*unaryExpr) exprNode()   {}
func (*callExpr) exprNode()    {}
func (*arrayLit) exprNode()    {}
func (*ternaryExpr) exprNode() {}
func (*incDecExpr) exprNode()  {}

// Program is a parsed PHP script.
type Program struct {
	stmts []stmt
	funcs map[string]*funcDecl
}
