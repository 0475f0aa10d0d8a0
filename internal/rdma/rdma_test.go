package rdma

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestTCPExchange: a message each way over a NewTCPPair link arrives
// whole, at its length.
func TestTCPExchange(t *testing.T) {
	a, b := tcpMessengerPair(t, 64)
	for _, dir := range []struct {
		from, to *Messenger
		msg      string
	}{{a, b, "hello ring"}, {b, a, "and back"}} {
		if err := dir.from.Send([]byte(dir.msg)); err != nil {
			t.Fatal(err)
		}
		got, err := dir.to.Recv()
		if err != nil || string(got) != dir.msg {
			t.Fatalf("recv = %q, %v; want %q", got, err, dir.msg)
		}
	}
}

// TestTCPOrdering: sends queued back to back, each from a buffer of its
// own, are written and their callbacks run in send order, and arrive in
// that order.
func TestTCPOrdering(t *testing.T) {
	a, b := tcpMessengerPair(t, 8)
	const n = 20
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		i := i
		if err := a.SendVectoredAsync([][]byte{{byte(i)}}, func(err error) {
			if err != nil {
				t.Error(err)
			}
			done <- i
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		data, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != 1 || data[0] != byte(i) {
			t.Fatalf("recv %d = %v (ordering)", i, data)
		}
		if got := <-done; got != i {
			t.Fatalf("callback %d ran in place of %d", got, i)
		}
	}
}

// TestSendTooLarge: a message past the link's bound is refused before
// it is accepted, on every send path, and its callback never runs.
func TestSendTooLarge(t *testing.T) {
	a, _ := tcpMessengerPair(t, 4)
	if err := a.SendVectoredAsync([][]byte{make([]byte, 3), make([]byte, 2)}, func(error) {
		t.Error("a refused send's callback ran")
	}); err != ErrTooLarge {
		t.Fatalf("SendVectoredAsync err = %v", err)
	}
	encode := func(dst []byte) int { return 0 }
	if err := a.SendEncoded(5, encode); err != ErrTooLarge {
		t.Fatalf("SendEncoded err = %v", err)
	}
	if err := a.TrySendEncoded(5, encode); err != ErrTooLarge {
		t.Fatalf("TrySendEncoded err = %v", err)
	}
}

// TestClosedPair: once closed, a messenger refuses every send and
// receive with ErrClosed, and a second Close is harmless.
func TestClosedPair(t *testing.T) {
	a, b := tcpMessengerPair(t, 4)
	b.Close()
	a.Close()
	if err := a.Send([]byte{1}); err != ErrClosed {
		t.Fatalf("Send err = %v, want ErrClosed", err)
	}
	if err := a.TrySendEncoded(1, func([]byte) int { return 1 }); err != ErrClosed {
		t.Fatalf("TrySendEncoded err = %v, want ErrClosed", err)
	}
	if err := a.SendVectoredAsync([][]byte{{1}}, nil); err != ErrClosed {
		t.Fatalf("SendVectoredAsync err = %v, want ErrClosed", err)
	}
	if _, err := a.Recv(); err != ErrClosed {
		t.Fatalf("Recv err = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// A link torn down dialing end first leaves that end's port in
// TIME_WAIT; a listener must still be able to bind it, or every closed
// ring would keep ports from servers for a minute.
func TestClosedLinkFreesDialPort(t *testing.T) {
	dial, acc, err := NewTCPPair()
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

// TestTCPLargeTransfer: a 4 MB message, several socket buffers' worth,
// arrives intact.
func TestTCPLargeTransfer(t *testing.T) {
	const size = 4 << 20
	a, b := tcpMessengerPair(t, size)
	send := make([]byte, size)
	for i := range send {
		send[i] = byte(i * 31)
	}
	sent := make(chan error, 1)
	go func() { sent <- a.Send(send) }()
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(send, got) {
		t.Fatal("payload corrupted")
	}
}

// TestHangUpBehindReceiverReachesRecv: a peer that sends and hangs up
// while the receiver is behind is heard in order — every message, then
// the hang-up — however many messages were waiting.
func TestHangUpBehindReceiverReachesRecv(t *testing.T) {
	for _, sends := range []int{1, 8, 10} {
		a, b := tcpMessengerPair(t, 16)
		for i := 0; i < sends; i++ {
			if err := a.Send([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		a.Close()
		// An endpoint that reads ahead of Recv gets every chance to read
		// the whole stream, hang-up included, before the receiver asks:
		// the receiver yields until the endpoint has issued a read for
		// each prefix, each body and the hang-up, or 100,000 times.
		for i := 0; i < 100_000 && b.Syscalls() < int64(2*sends+1); i++ {
			runtime.Gosched()
		}
		got := make(chan error, 1)
		go func() {
			for i := 0; i < sends; i++ {
				if data, err := b.Recv(); err != nil || data[0] != byte(i) {
					got <- fmt.Errorf("message %d: %v, %v", i, data, err)
					return
				}
			}
			_, err := b.Recv()
			got <- err
		}()
		select {
		case err := <-got:
			if err != io.EOF {
				t.Fatalf("%d sends: Recv after the hang-up = %v, want io.EOF", sends, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d sends: Recv still blocked 5 s after the peer hung up", sends)
		}
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
