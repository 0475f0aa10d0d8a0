package live

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/rdma"
)

// TestMain fails the package when the tests leave any of this module's
// goroutines running: receive, hop and beat loops, messenger send
// loops (leakcheck).
func TestMain(m *testing.M) { leakcheck.Main(m) }

// openEndpoints counts the link endpoints still open by their send
// loops: NewMessenger starts one per endpoint, and Close waits for it
// to close loopDone. A loop Close has released is past every wait, so
// it only ever shows as running or runnable until it exits; the count
// is taken once no send loop is in either state, or as it stands after
// 5 s.
func openEndpoints() int {
	deadline := time.Now().Add(5 * time.Second)
	for ; ; runtime.Gosched() {
		open, settled := 0, true
		for _, g := range leakcheck.Goroutines() {
			if !strings.Contains(g, "created by repro/internal/rdma.NewMessenger") {
				continue
			}
			open++
			if strings.Contains(g, "[running") || strings.Contains(g, "[runnable") {
				settled = false
			}
		}
		if settled || time.Now().After(deadline) {
			return open
		}
	}
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
	before, open := links(), openEndpoints()
	// Two new links, four endpoints: the live predecessor installs two
	// and closes the two it replaces; the killed successor must close
	// the two it is handed.
	r.splice(dead.id)
	if links() != before {
		t.Fatal("the killed node took new links")
	}
	if got := openEndpoints(); got != open {
		t.Fatalf("%d link endpoints open after the splice, want %d: the killed node's new links were never closed", got, open)
	}
}
