// Package leakcheck fails a test binary whose tests leave any of this
// module's goroutines running, or a socket open: every ring, link and
// server a test builds must tear down to nothing. A package opts in
// with
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
// goroutine running this module's code outlives them, or when more
// sockets are open after them than before. Teardown finishes
// asynchronously in places, so leftovers get up to 3 s to go before
// they are reported. Where /proc is missing, sockets are not checked.
func Main(m *testing.M) {
	sockets, countable := Sockets()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(3 * time.Second)
		var leaked []string
		poll(deadline, func() bool {
			leaked = leaked[:0]
			for _, g := range Goroutines() {
				if strings.Contains(g, "repro/internal/") {
					leaked = append(leaked, g)
				}
			}
			return len(leaked) == 0
		})
		if len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "%d goroutines left running after the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
		open := sockets
		if countable {
			poll(deadline, func() bool {
				open, _ = Sockets()
				return open <= sockets
			})
		}
		if open > sockets {
			fmt.Fprintf(os.Stderr, "%d sockets left open after the tests (%d before them)\n", open, sockets)
			code = 1
		}
	}
	os.Exit(code)
}

// poll calls done every 20 ms until it reports true or deadline passes.
func poll(deadline time.Time, done func() bool) {
	for !done() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
}

// Sockets counts the process's open sockets: the entries of
// /proc/self/fd that link to "socket:[inode]". ok is false where /proc
// is missing, and n is then 0.
func Sockets() (n int, ok bool) {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false
	}
	for _, fd := range fds {
		if target, err := os.Readlink("/proc/self/fd/" + fd.Name()); err == nil && strings.HasPrefix(target, "socket:") {
			n++
		}
	}
	return n, true
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
