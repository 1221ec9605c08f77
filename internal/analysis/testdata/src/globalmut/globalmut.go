package globalmut

import "tasp/internal/lob"

type config struct{ depth int }

var (
	counter int
	table   = map[string]int{}
	order   = []int{1, 2, 3}
	cfg     config
	ptr     = &config{}
)

// init may set globals up: it runs once, before any goroutine exists.
func init() {
	counter = 1
	table["a"] = 1
	lob.Methods = append(lob.Methods[:0:0], lob.Methods...)
}

// mutate writes shared state every way the analyzer must catch.
func mutate() {
	counter++                   // want `assignment to package-level variable counter outside init`
	counter = 2                 // want `package-level variable counter`
	counter += 3                // want `package-level variable counter`
	table["b"] = 2              // want `package-level variable table`
	order[0] = 9                // want `package-level variable order`
	(cfg).depth = 3             // want `package-level variable cfg`
	ptr.depth = 4               // want `package-level variable ptr`
	*ptr = config{}             // want `package-level variable ptr`
	lob.Methods = nil           // want `package-level variable lob\.Methods`
	lob.Methods[0] = lob.Invert // want `package-level variable lob\.Methods`
	for counter = range order { // want `package-level variable counter`
	}
	for _, lob.Methods[0] = range lob.Methods { // want `package-level variable lob\.Methods`
	}
}

// hook is a package-level closure: its body runs outside init.
var hook = func() { counter = 5 } // want `package-level variable counter`

// local shows the permitted patterns: reads of globals, writes to locals
// (including a local copy of a global and a shadowing declaration).
func local() int {
	n := counter
	n++
	var c config
	c.depth = ptr.depth
	order := []int{0}
	order[0] = n
	counter, m := 1, 2 // declares a local counter: := never writes a global
	_, _ = counter, m
	return c.depth + order[0]
}
