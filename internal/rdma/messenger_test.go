package rdma

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func TestMessengerRoundtrip(t *testing.T) {
	qa, qb := NewPair(MessengerDepth)
	a, err := NewMessenger(qa, 1024)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMessenger(qb, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	done := make(chan []byte, 1)
	go func() {
		data, err := b.Recv()
		if err != nil {
			done <- nil
			return
		}
		done <- data
	}()
	if err := a.Send([]byte("spin the ring")); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-done:
		if !bytes.Equal(data, []byte("spin the ring")) {
			t.Fatalf("recv = %q", data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv timeout")
	}
}

func TestMessengerManyMessages(t *testing.T) {
	qa, qb := NewPair(MessengerDepth)
	a, _ := NewMessenger(qa, 256)
	b, _ := NewMessenger(qb, 256)
	defer a.Close()
	defer b.Close()

	const n = 200
	var wg sync.WaitGroup
	wg.Add(1)
	errs := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			data, err := b.Recv()
			if err != nil {
				errs <- err
				return
			}
			want := fmt.Sprintf("msg-%04d", i)
			if string(data) != want {
				errs <- fmt.Errorf("got %q want %q (ordering)", data, want)
				return
			}
		}
		errs <- nil
	}()
	for i := 0; i < n; i++ {
		if err := a.Send([]byte(fmt.Sprintf("msg-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

func TestMessengerTooLarge(t *testing.T) {
	qa, qb := NewPair(MessengerDepth)
	a, errA := NewMessenger(qa, 16)
	b, errB := NewMessenger(qb, 16)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	defer a.Close()
	defer b.Close()
	if err := a.Send(make([]byte, 17)); err != ErrTooLarge {
		t.Fatalf("err = %v", err)
	}
	if a.MaxMessage() != 16 {
		t.Fatal("MaxMessage wrong")
	}
}

func TestMessengerCloseUnblocksRecv(t *testing.T) {
	qa, qb := NewPair(MessengerDepth)
	a, errA := NewMessenger(qa, 16)
	b, errB := NewMessenger(qb, 16)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	b.Close()
	a.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv should fail after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
}

func TestNewMessengerBadSize(t *testing.T) {
	qa, qb := NewPair(MessengerDepth)
	defer qa.Close()
	defer qb.Close()
	if _, err := NewMessenger(qa, 0); err == nil {
		t.Fatal("expected error")
	}
}

// TestMessengerSendEncoded checks the encode-into-registered-region
// path: the encoder writes directly into the send buffer and the exact
// written length travels.
func TestMessengerSendEncoded(t *testing.T) {
	qa, qb := NewPair(MessengerDepth)
	a, err := NewMessenger(qa, 1024)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMessenger(qb, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	done := make(chan []byte, 1)
	go func() {
		data, _ := b.Recv()
		done <- data
	}()
	// Reserve a generous window, write less: the short length must win.
	err = a.SendEncoded(100, func(dst []byte) int {
		if len(dst) != 100 {
			t.Errorf("window is %d bytes, want 100", len(dst))
		}
		return copy(dst, "header|payload")
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-done:
		if !bytes.Equal(data, []byte("header|payload")) {
			t.Fatalf("recv = %q", data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv timeout")
	}

	if err := a.SendEncoded(2048, func(dst []byte) int { return 0 }); err != ErrTooLarge {
		t.Fatalf("oversize SendEncoded: err = %v, want ErrTooLarge", err)
	}
	if err := a.SendEncoded(8, func(dst []byte) int { return 9 }); err == nil {
		t.Fatal("encoder overrun not rejected")
	}
}

// tcpMessengerPair dials a loopback connection and wraps both ends in
// messengers, for tests that exercise the vectored TCP path.
func tcpMessengerPair(t *testing.T, maxMsg int) (*Messenger, *Messenger) {
	t.Helper()
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
	a, err := NewMessenger(NewTCP(cliConn), maxMsg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMessenger(NewTCP(srvConn), maxMsg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestMessengerSendVectoredTCP checks that a vectored send over the TCP
// provider arrives as the exact concatenation of its parts — the
// receiver cannot tell a gathered batch from a contiguous message.
func TestMessengerSendVectoredTCP(t *testing.T) {
	a, b := tcpMessengerPair(t, 1024)
	if _, ok := a.qp.(VectoredSender); !ok {
		t.Fatal("TCP queue pair should support vectored sends")
	}
	parts := [][]byte{
		[]byte("hdr|"),
		{}, // empty parts must be tolerated
		[]byte("frag-one|"),
		[]byte("frag-two"),
	}
	want := []byte("hdr|frag-one|frag-two")
	done := make(chan []byte, 1)
	go func() {
		data, _ := b.Recv()
		done <- data
	}()
	if err := a.SendVectored(parts); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-done:
		if !bytes.Equal(data, want) {
			t.Fatalf("recv = %q, want %q", data, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv timeout")
	}
	if err := a.SendVectored([][]byte{make([]byte, 1000), make([]byte, 25)}); err != ErrTooLarge {
		t.Fatalf("oversize vectored send: err = %v, want ErrTooLarge", err)
	}
}

// TestMessengerSendVectoredFallback checks the gather-into-region
// fallback on a transport without PostSendVec (the inproc provider).
func TestMessengerSendVectoredFallback(t *testing.T) {
	qa, qb := NewPair(MessengerDepth)
	a, _ := NewMessenger(qa, 256)
	b, _ := NewMessenger(qb, 256)
	defer a.Close()
	defer b.Close()
	if _, ok := a.qp.(VectoredSender); ok {
		t.Fatal("inproc pair unexpectedly vectored; fallback untested")
	}
	done := make(chan []byte, 1)
	go func() {
		data, _ := b.Recv()
		done <- data
	}()
	if err := a.SendVectored([][]byte{[]byte("spin "), []byte("the "), []byte("ring")}); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-done:
		if !bytes.Equal(data, []byte("spin the ring")) {
			t.Fatalf("recv = %q", data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv timeout")
	}
}

// TestMessengerSendPool checks that concurrent SendEncoded calls share
// the region pool correctly (every message arrives intact) and that
// pool pressure is visible in PoolStats.
func TestMessengerSendPool(t *testing.T) {
	qa, qb := NewPair(MessengerDepth)
	a, _ := NewMessenger(qa, 256)
	b, _ := NewMessenger(qb, 256)
	defer a.Close()
	defer b.Close()

	const n = 64
	const senders = 8
	got := make(chan string, n*senders)
	go func() {
		for i := 0; i < n*senders; i++ {
			data, err := b.Recv()
			if err != nil {
				close(got)
				return
			}
			got <- string(data)
		}
		close(got)
	}()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				msg := fmt.Sprintf("s%02d-m%04d", s, i)
				if err := a.SendEncoded(len(msg), func(dst []byte) int {
					return copy(dst, msg)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	seen := make(map[string]bool, n*senders)
	for msg := range got {
		if seen[msg] {
			t.Fatalf("duplicate message %q (pool region reused before completion)", msg)
		}
		seen[msg] = true
	}
	if len(seen) != n*senders {
		t.Fatalf("received %d distinct messages, want %d", len(seen), n*senders)
	}
	acquires, waits := a.PoolStats()
	if acquires != n*senders {
		t.Fatalf("acquires = %d, want %d", acquires, n*senders)
	}
	if waits < 0 || waits > acquires {
		t.Fatalf("waits = %d out of range [0, %d]", waits, acquires)
	}
}

// TestMessengerPoolBounded checks the registered-byte cap: a messenger
// with huge messages gets fewer regions, never zero.
func TestMessengerPoolBounded(t *testing.T) {
	qa, qb := NewPair(MessengerDepth)
	defer qb.Close()
	m, err := NewMessenger(qa, maxSendPoolBytes) // one region fills the cap
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := cap(m.sendFree); got != 1 {
		t.Fatalf("pool size = %d regions, want 1 at the byte cap", got)
	}
	qc, qd := NewPair(MessengerDepth)
	defer qd.Close()
	small, err := NewMessenger(qc, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if got := cap(small.sendFree); got != MessengerSendRegions {
		t.Fatalf("pool size = %d regions, want %d for small messages", got, MessengerSendRegions)
	}
}

// TestMessengerNoLostCompletion is the regression test for the lost send
// completion: post used to enqueue a send's ticket after posting it, so
// a wire that completed the send in between had its completion dropped
// and the sender waited forever. Short sends over fresh pairs hit that
// window within a few hundred rounds. The pairs are in-memory pipes
// under the TCP provider's framing: the race is between the provider's
// send loop and the messenger, and 2,000 real connections would litter
// the ephemeral port range other packages' tests bind in.
func TestMessengerNoLostCompletion(t *testing.T) {
	for round := 1; round <= 2000; round++ {
		near, far := net.Pipe()
		a, err := NewMessenger(NewTCP(near), 64)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewMessenger(NewTCP(far), 64)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for {
				if _, err := b.Recv(); err != nil {
					return
				}
			}
		}()
		sent := make(chan error, 1)
		go func() {
			for i := 0; i < 200; i++ {
				if err := a.Send([]byte{1}); err != nil {
					sent <- err
					return
				}
			}
			sent <- nil
		}()
		select {
		case err = <-sent:
		case <-time.After(10 * time.Second):
			err = fmt.Errorf("a Send never completed")
		}
		a.Close()
		b.Close()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
