package rdma

import (
	"bytes"
	"net"
	"testing"
	"time"
)

func TestRegisterMemory(t *testing.T) {
	var d Device
	mr := d.RegisterMemory(1024)
	if !mr.Registered() || len(mr.Bytes()) != 1024 || mr.Key() == 0 {
		t.Fatalf("registration wrong: %+v", mr)
	}
	mr2 := d.RegisterMemory(10)
	if mr2.Key() == mr.Key() {
		t.Fatal("keys must differ")
	}
	d.Deregister(mr)
	if mr.Registered() {
		t.Fatal("still registered after deregister")
	}
}

func pairExchange(t *testing.T, a, b QueuePair) {
	t.Helper()
	var d Device
	send := d.RegisterMemory(64)
	copy(send.Bytes(), "hello ring")
	if err := b.PostRecv(64); err != nil {
		t.Fatal(err)
	}
	if err := a.PostSend(send, 10); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-a.SendCompletions():
		if c.Err != nil || c.Bytes != 10 {
			t.Fatalf("send completion = %+v", c)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("send completion timeout")
	}
	select {
	case c := <-b.RecvCompletions():
		if c.Err != nil || c.Bytes != 10 {
			t.Fatalf("recv completion = %+v", c)
		}
		if !bytes.Equal(c.Data, []byte("hello ring")) {
			t.Fatalf("payload = %q", c.Data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv completion timeout")
	}
}

// tcpPair connects two queue pairs over loopback (NewTCPPair); both
// close when the test ends.
func tcpPair(t testing.TB) (QueuePair, QueuePair) {
	t.Helper()
	a, b, err := NewTCPPair()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestTCPExchange(t *testing.T) {
	a, b := tcpPair(t)
	pairExchange(t, a, b)
}

func TestTCPOrdering(t *testing.T) {
	a, b := tcpPair(t)
	var d Device
	const n = 20
	for i := 0; i < n; i++ {
		if err := b.PostRecv(8); err != nil {
			t.Fatal(err)
		}
	}
	// All n sends are posted back to back, each from a region of its own
	// (a region stays untouched until its send completes).
	for i := 0; i < n; i++ {
		mr := d.RegisterMemory(8)
		mr.Bytes()[0] = byte(i)
		if err := a.PostSend(mr, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case c := <-a.SendCompletions():
			if c.Err != nil {
				t.Fatal(c.Err)
			}
		case <-time.After(time.Second):
			t.Fatal("send timeout")
		}
	}
	for i := 0; i < n; i++ {
		select {
		case c := <-b.RecvCompletions():
			if c.Err != nil {
				t.Fatal(c.Err)
			}
			if len(c.Data) != 1 || c.Data[0] != byte(i) {
				t.Fatalf("recv %d = %v (ordering)", i, c.Data)
			}
		case <-time.After(time.Second):
			t.Fatalf("recv %d timeout", i)
		}
	}
}

func TestUnregisteredRejected(t *testing.T) {
	a, _ := tcpPair(t)
	mr := &MemoryRegion{buf: make([]byte, 8)}
	if err := a.PostSend(mr, 1); err != ErrNotRegistered {
		t.Fatalf("PostSend err = %v", err)
	}
}

func TestSendTooLarge(t *testing.T) {
	a, _ := tcpPair(t)
	var d Device
	mr := d.RegisterMemory(4)
	if err := a.PostSend(mr, 8); err != ErrTooLarge {
		t.Fatalf("err = %v", err)
	}
}

func TestClosedPair(t *testing.T) {
	a, b := tcpPair(t)
	b.Close()
	a.Close()
	var d Device
	mr := d.RegisterMemory(4)
	if err := a.PostSend(mr, 1); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// A link torn down dialing end first leaves that end's port in
// TIME_WAIT; a listener must still be able to bind it, or every closed
// ring would keep ports from servers for a minute.
func TestClosedLinkFreesDialPort(t *testing.T) {
	dial, acc, err := loopbackConns()
	if err != nil {
		t.Fatal(err)
	}
	port := dial.LocalAddr().String()
	dial.Close()
	acc.Close()
	ln, err := net.Listen("tcp", port)
	if err != nil {
		t.Fatalf("listen on the closed link's dialing port: %v", err)
	}
	ln.Close()
}

func TestTCPLargeTransfer(t *testing.T) {
	a, b := tcpPair(t)
	var d Device
	const size = 4 << 20
	send := d.RegisterMemory(size)
	for i := range send.Bytes() {
		send.Bytes()[i] = byte(i * 31)
	}
	if err := b.PostRecv(size); err != nil {
		t.Fatal(err)
	}
	if err := a.PostSend(send, size); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-b.RecvCompletions():
		if c.Err != nil || c.Bytes != size {
			t.Fatalf("recv = %+v", c.Err)
		}
		if !bytes.Equal(send.Bytes(), c.Data) {
			t.Fatal("payload corrupted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("large recv timeout")
	}
}

func TestCPUModelFigure1(t *testing.T) {
	// At 10 Gb/s on a 2.33 GHz quad-core-class CPU (cumulative ~9.3GHz,
	// but the rule of thumb is per-GHz): the legacy stack saturates.
	legacy := CPUModel(LegacyStack, 10, 10)
	offload := CPUModel(NICOffload, 10, 10)
	rdma := CPUModel(RDMA, 10, 10)

	// Figure 1's message: offload alone is not sufficient; only RDMA
	// collapses the cost.
	if !(legacy.Total() > offload.Total()) {
		t.Fatal("offload should cost less than legacy")
	}
	if !(offload.Total() > 2*rdma.Total()) {
		t.Fatal("RDMA should be dramatically cheaper than offload")
	}
	// Copying dominates the legacy stack and is unchanged by offload.
	if legacy.DataCopying < legacy.NetworkStack {
		t.Fatal("copying must dominate the legacy breakdown")
	}
	if offload.DataCopying != legacy.DataCopying {
		t.Fatal("NIC offload must not reduce the copy cost")
	}
	if offload.NetworkStack != 0 {
		t.Fatal("offload moves stack processing off the CPU")
	}
	// RDMA total is negligible (<5% of legacy).
	if rdma.Total() > 0.05*legacy.Total() {
		t.Fatalf("RDMA total = %v, want negligible", rdma.Total())
	}
}

func TestCPUModelRuleOfThumb(t *testing.T) {
	// 1 Gb/s on 1 GHz: legacy load = 100% of the core.
	b := CPUModel(LegacyStack, 1, 1)
	if tot := b.Total(); tot < 0.999 || tot > 1.001 {
		t.Fatalf("legacy total = %v, want 1.0 (1GHz per 1Gb/s)", tot)
	}
}

func TestMemoryBusCrossings(t *testing.T) {
	if MemoryBusCrossings(LegacyStack) <= MemoryBusCrossings(RDMA) {
		t.Fatal("legacy must cross the bus more often than RDMA")
	}
	if MemoryBusCrossings(RDMA) != 1 {
		t.Fatal("RDMA crosses exactly once")
	}
}

func TestCPUModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CPUModel(LegacyStack, -1, 1)
}

func TestStackString(t *testing.T) {
	for _, s := range []Stack{LegacyStack, NICOffload, RDMA} {
		if s.String() == "" {
			t.Fatal("empty stack name")
		}
	}
}
