package live

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/rdma"
)

// TestMain fails the package when the tests leave any of this module's
// goroutines running: every ring a test builds must tear down to
// nothing — receive, hop and beat loops, messenger dispatchers, queue
// pair loops. Teardown finishes asynchronously in places, so leftovers
// get up to 3 s to exit before their stacks are printed.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(3 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "%d goroutines left running after the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines polls until no other goroutine has this module's code
// on its stack, or until wait runs out, and returns the stacks of those
// still running then.
func leakedGoroutines(wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	for {
		var leaked []string
		for _, g := range otherGoroutines() {
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

// otherGoroutines returns the stack of every goroutine but the caller's.
func otherGoroutines() []string {
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

// queuePairLoops counts the in-process queue pair endpoints still open:
// each runs the one goroutine its constructor starts, its receive loop,
// until it is closed. (The creator names it even before it first runs.)
func queuePairLoops() int {
	loops := 0
	for _, g := range otherGoroutines() {
		if strings.Contains(g, "created by repro/internal/rdma.newInprocQP") {
			loops++
		}
	}
	return loops
}

// TestSpliceOntoKilledNodeClosesItsLinks: a splice around a dead node
// whose other neighbour kill has already stopped brings that neighbour
// fresh links. Nothing would ever close them there, so the splice must
// close them instead of installing them.
func TestSpliceOntoKilledNodeClosesItsLinks(t *testing.T) {
	r := newTestRing(t, 4)
	defer r.Close()
	dead, s := r.node(1), r.node(2)
	dead.kill()
	s.kill()
	links := func() [4]*rdma.Messenger {
		s.linkMu.RLock()
		defer s.linkMu.RUnlock()
		return [4]*rdma.Messenger{s.dataOut, s.reqOut, s.dataIn, s.reqIn}
	}
	before, open := links(), queuePairLoops()
	// Two new links, four endpoints: the live predecessor installs two
	// and closes the two it replaces; the killed successor must close
	// the two it is handed.
	r.splice(dead.id)
	if links() != before {
		t.Fatal("the killed node took new links")
	}
	if got := queuePairLoops(); got != open {
		t.Fatalf("%d queue pair endpoints open after the splice, want %d: the killed node's new links were never closed", got, open)
	}
}
