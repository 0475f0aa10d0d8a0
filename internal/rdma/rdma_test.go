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

func TestInprocExchange(t *testing.T) {
	a, b := NewPair(4)
	defer a.Close()
	defer b.Close()
	pairExchange(t, a, b)
}

func TestInprocOrdering(t *testing.T) {
	a, b := NewPair(32)
	defer a.Close()
	defer b.Close()
	var d Device
	const n = 20
	for i := 0; i < n; i++ {
		if err := b.PostRecv(8); err != nil {
			t.Fatal(err)
		}
	}
	sent := make([]*MemoryRegion, n)
	for i := 0; i < n; i++ {
		mr := d.RegisterMemory(8)
		mr.Bytes()[0] = byte(i)
		sent[i] = mr
		if err := a.PostSend(mr, 1); err != nil {
			t.Fatal(err)
		}
		// Wait for the send completion to preserve posting order (the
		// emulation dispatches sends asynchronously).
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
	a, b := NewPair(1)
	defer a.Close()
	defer b.Close()
	mr := &MemoryRegion{buf: make([]byte, 8)}
	if err := a.PostSend(mr, 1); err != ErrNotRegistered {
		t.Fatalf("PostSend err = %v", err)
	}
}

func TestSendTooLarge(t *testing.T) {
	a, b := NewPair(1)
	defer a.Close()
	defer b.Close()
	var d Device
	mr := d.RegisterMemory(4)
	if err := a.PostSend(mr, 8); err != ErrTooLarge {
		t.Fatalf("err = %v", err)
	}
}

func TestClosedPair(t *testing.T) {
	a, b := NewPair(1)
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

func TestTCPExchange(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn
		}
	}()
	cliConn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srvConn := <-accepted
	a := NewTCP(cliConn)
	b := NewTCP(srvConn)
	defer a.Close()
	defer b.Close()
	pairExchange(t, a, b)
}

func TestTCPLargeTransfer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn
		}
	}()
	cliConn, _ := net.Dial("tcp", ln.Addr().String())
	srvConn := <-accepted
	a, b := NewTCP(cliConn), NewTCP(srvConn)
	defer a.Close()
	defer b.Close()

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
