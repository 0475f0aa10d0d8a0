package live

import (
	"strings"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/rdma"
)

// TestMain fails the package when the tests leave any of this module's
// goroutines running — receive, hop and beat loops — or a link's socket
// open (leakcheck).
func TestMain(m *testing.M) { leakcheck.Main(m) }

// openEndpoints counts the process's open sockets: every link endpoint
// is one, and Messenger.Close has closed it by the time it returns.
func openEndpoints(t *testing.T) int {
	n, ok := leakcheck.Sockets()
	if !ok {
		t.Skip("no /proc/self/fd to count sockets in")
	}
	return n
}

// TestRingRunsNoTransportGoroutine: the transport starts no goroutine —
// a send writes on its caller, a receive reads on its caller — so a
// running 3-node ring has none that internal/rdma created.
func TestRingRunsNoTransportGoroutine(t *testing.T) {
	r := newTestRing(t, 3)
	defer r.Close()
	if _, err := r.Node(1).ExecSQL("select c.t_id from t, c where c.t_id = t.id"); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, g := range leakcheck.Goroutines() {
		if strings.Contains(g, "created by repro/internal/rdma.") {
			n++
		}
	}
	if n != 0 {
		t.Fatalf("%d goroutines created by internal/rdma on a 3-node ring, want 0", n)
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
	before, open := links(), openEndpoints(t)
	// Two new links, four endpoints: the live predecessor installs two
	// and closes the two it replaces; the killed successor must close
	// the two it is handed.
	r.splice(dead.id)
	if links() != before {
		t.Fatal("the killed node took new links")
	}
	if got := openEndpoints(t); got != open {
		t.Fatalf("%d link endpoints open after the splice, want %d: the killed node's new links were never closed", got, open)
	}
}
