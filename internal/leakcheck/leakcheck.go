// Package leakcheck fails a test binary whose tests leave any of this
// module's goroutines running: every ring, link and server a test
// builds must tear down to nothing. A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the tests and, if they pass, fails the binary when a
// goroutine running this module's code outlives them. Teardown finishes
// asynchronously in places, so leftovers get up to 3 s to exit before
// their stacks are printed.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedAfter(3 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "%d goroutines left running after the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leakedAfter polls until no other goroutine has this module's code on its
// stack, or until wait runs out, and returns the stacks of those still
// running then.
func leakedAfter(wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	for {
		var leaked []string
		for _, g := range Goroutines() {
			if strings.Contains(g, "repro/internal/") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Goroutines returns the stack of every goroutine but the caller's.
func Goroutines() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			// The caller's own stack comes first.
			return strings.Split(string(buf[:n]), "\n\n")[1:]
		}
		buf = make([]byte, 2*len(buf))
	}
}
