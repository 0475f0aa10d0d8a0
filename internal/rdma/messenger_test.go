package rdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// tcpMessengerPair wraps both ends of a loopback connection
// (NewTCPPair) in messengers of the given message bound; both close
// when the test ends.
func tcpMessengerPair(t testing.TB, maxMsg int) (*Messenger, *Messenger) {
	t.Helper()
	ca, cb := tcpConnPair(t)
	a, err := NewMessenger(ca, maxMsg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewMessenger(cb, maxMsg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b
}

func TestMessengerRoundtrip(t *testing.T) {
	a, b := tcpMessengerPair(t, 1024)

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
	a, b := tcpMessengerPair(t, 256)

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
	a, _ := tcpMessengerPair(t, 16)
	if err := a.Send(make([]byte, 17)); err != ErrTooLarge {
		t.Fatalf("err = %v", err)
	}
	if a.MaxMessage() != 16 {
		t.Fatal("MaxMessage wrong")
	}
}

func TestMessengerCloseUnblocksRecv(t *testing.T) {
	a, b := tcpMessengerPair(t, 16)
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	// countingReader counts a read just before it enters conn.Read, so
	// once the count moves Recv is in (or about to block in) its read.
	for b.Syscalls() == 0 {
		runtime.Gosched()
	}
	b.Close()
	a.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("Recv err = %v after Close, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
}

func TestNewMessengerBadSize(t *testing.T) {
	ca, _ := tcpConnPair(t)
	if _, err := NewMessenger(ca, 0); err == nil {
		t.Fatal("expected error")
	}
}

// TestMessengerSendEncoded checks the encode-into-send-region path: the encoder writes directly into the send buffer and the exact
// written length travels.
func TestMessengerSendEncoded(t *testing.T) {
	a, b := tcpMessengerPair(t, 1024)

	done := make(chan []byte, 1)
	go func() {
		data, _ := b.Recv()
		done <- data
	}()
	// Reserve a generous window, write less: the short length must win.
	err := a.SendEncoded(100, func(dst []byte) int {
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

// checkSendVectored sends a vectored message from a to b: it must
// arrive as the exact concatenation of its parts — the receiver cannot
// tell a gathered batch from a contiguous message — in a buffer of the
// receiver's own, which the sender's later writes to its parts do not
// reach. An oversize vectored send is refused.
func checkSendVectored(t *testing.T, a, b *Messenger) {
	t.Helper()
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
	copy(parts[2], "XXXXXXXXX") // written: the parts are the sender's again
	select {
	case data := <-done:
		if !bytes.Equal(data, want) {
			t.Fatalf("recv = %q, want %q", data, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv timeout")
	}
	big := a.MaxMessage() - 24
	if err := a.SendVectored([][]byte{make([]byte, big), make([]byte, 25)}); err != ErrTooLarge {
		t.Fatalf("oversize vectored send: err = %v, want ErrTooLarge", err)
	}
}

// TestMessengerSendVectoredTCP: the parts go out in one gather write,
// straight from the caller's buffers.
func TestMessengerSendVectoredTCP(t *testing.T) {
	a, b := tcpMessengerPair(t, 1024)
	checkSendVectored(t, a, b)
}

// checkSendPool runs concurrent senders from a to b, half of them
// encoding into the shared region pool (SendEncoded), half sending
// their own buffers in two parts (SendVectored). A region goes to the
// kernel without a copy, so one recycled before its write returned
// would garble a payload in flight, and two writes not serialized on
// the link would interleave their frames. Every message must arrive
// intact and exactly once, and each is one write (WriteStats).
func checkSendPool(t *testing.T, a, b *Messenger, size int) {
	t.Helper()
	const n = 64
	const senders = 8
	payload := func(s, i int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("s%02d-m%04d|", s, i)), size/10)
	}
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
				msg := payload(s, i)
				var err error
				if s%2 == 0 {
					err = a.SendEncoded(len(msg), func(dst []byte) int { return copy(dst, msg) })
				} else {
					err = a.SendVectored([][]byte{msg[:len(msg)/2], msg[len(msg)/2:]})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	want := make(map[string]bool, n*senders)
	for s := 0; s < senders; s++ {
		for i := 0; i < n; i++ {
			want[string(payload(s, i))] = true
		}
	}
	seen := make(map[string]bool, n*senders)
	for msg := range got {
		if !want[msg] {
			t.Fatalf("garbled message of %d bytes (a region reused or a frame interleaved mid-write)", len(msg))
		}
		if seen[msg] {
			t.Fatalf("duplicate message of %d bytes (a region reused mid-write)", len(msg))
		}
		seen[msg] = true
	}
	if len(seen) != n*senders {
		t.Fatalf("received %d distinct messages, want %d", len(seen), n*senders)
	}
	writes, waits := a.WriteStats()
	if writes != n*senders {
		t.Fatalf("writes = %d, want %d", writes, n*senders)
	}
	if waits < 0 || waits > writes {
		t.Fatalf("waits = %d out of range [0, %d]", waits, writes)
	}
}

// TestMessengerSendPool: concurrent senders of small messages.
func TestMessengerSendPool(t *testing.T) {
	a, b := tcpMessengerPair(t, 256)
	checkSendPool(t, a, b, 200)
}

// TestMessengerSendPoolTCP: the same with 32 KB messages, which the
// kernel reads straight out of their pool regions.
func TestMessengerSendPoolTCP(t *testing.T) {
	a, b := tcpMessengerPair(t, 64<<10)
	checkSendPool(t, a, b, 32<<10)
}

// TestTCPHopCopiesOnce pins the copy count of a TCP hop: a 512 KB
// message, sent either vectored from the caller's buffers or encoded
// into a send region, costs the process at most one allocation of its
// size — the slab the receiver is handed — and nothing at all once the
// receiver recycles its slabs. A user-space copy on either side (a send
// copy of the region, a receive copy out of a read buffer) would be a
// second message-sized allocation.
func TestTCPHopCopiesOnce(t *testing.T) {
	const size = 64 + 512<<10
	a, b := tcpMessengerPair(t, size)
	checkHopAllocs(t, a, b, size)
}

// checkHopAllocs measures the bytes allocated per steady-state hop of a
// size-byte message from a to b, for each send path and for a receiver
// that keeps its buffers (≤ 1.1× the message: the fresh slab each
// receive needs — what bench/'s probe does) and one that recycles them
// (≤ 0.05×: nothing message-sized).
func checkHopAllocs(t *testing.T, a, b *Messenger, size int) {
	t.Helper()
	const rounds = 8
	msg := bytes.Repeat([]byte{0x5a}, size)
	for _, send := range []struct {
		name string
		fn   func() error
	}{
		{"vectored", func() error { return a.SendVectored([][]byte{msg[:64], msg[64:]}) }},
		{"encoded", func() error {
			return a.SendEncoded(size, func(dst []byte) int { return copy(dst, msg) })
		}},
	} {
		for _, recv := range []struct {
			name    string
			recycle bool
			limit   float64
		}{
			{"keeping", false, 1.1},
			{"recycling", true, 0.05},
		} {
			hop := func() {
				sent := make(chan error, 1)
				go func() { sent <- send.fn() }()
				got, err := b.Recv()
				if err != nil {
					t.Fatalf("%s: recv: %v", send.name, err)
				}
				if err := <-sent; err != nil {
					t.Fatalf("%s: send: %v", send.name, err)
				}
				if !bytes.Equal(got, msg) {
					t.Fatalf("%s: payload corrupted", send.name)
				}
				if recv.recycle {
					b.Recycle(got)
				}
			}
			hop() // warm: goroutines, pooled scratch, the first slab
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				hop()
			}
			runtime.ReadMemStats(&after)
			per := float64(after.TotalAlloc-before.TotalAlloc) / rounds
			t.Logf("%s, %s receiver: %.3f× the message allocated per hop", send.name, recv.name, per/float64(size))
			if per > recv.limit*float64(size) {
				t.Errorf("%s, %s receiver: %.0f bytes allocated per %d-byte hop (%.3f×), want ≤ %.2f×",
					send.name, recv.name, per, size, per/float64(size), recv.limit)
			}
		}
	}
}

// TestRecycledSlabIsPoisoned: in a test binary a recycled slab is
// overwritten before it goes back on the free list, so a view kept past
// Recycle reads the poison pattern; the next slab of that size is the
// same memory, and a slab for a larger message is not.
func TestRecycledSlabIsPoisoned(t *testing.T) {
	p := slabPool{armed: true} // no collection trims it behind the test's back
	kept := p.get(13)
	copy(kept, "first message")
	p.put(kept)
	if !bytes.Equal(kept, bytes.Repeat([]byte{slabPoison}, len(kept))) {
		t.Fatalf("recycled slab reads %q, want the poison pattern", kept)
	}
	if other := p.get(14); &other[0] == &kept[0] {
		t.Fatal("a 14-byte slab came from the 13-byte free list")
	}
	if next := p.get(13); &next[0] != &kept[0] {
		t.Fatal("a same-size slab was allocated while one was free")
	}
}

// TestSlabPoolTrimsIdleSlabs: a collection drops the free slabs no
// message needed since the previous one — the bottom of each stack
// below its low-water mark — and keeps the rest.
func TestSlabPoolTrimsIdleSlabs(t *testing.T) {
	p := slabPool{armed: true} // trimmed by hand: no collection trims it too
	idle, busy := p.get(64), p.get(64)
	p.put(idle)
	p.put(busy)
	p.put(p.get(8)) // a size of its own, never asked for again
	p.trim()        // starts the first watched cycle
	p.put(p.get(64))
	if !p.trim() || len(p.free[64]) != 1 || &p.free[64][0][0] != &busy[0] || len(p.free[8]) != 0 {
		t.Fatalf("after an idle cycle: %d free 64-byte slabs, %d free 8-byte slabs; want the busy 64-byte one only", len(p.free[64]), len(p.free[8]))
	}
	if p.trim() || len(p.free) != 0 {
		t.Fatalf("a cycle nobody received in left %d sizes free, or the pool still watched", len(p.free))
	}
}

// TestSlabPoolFitsSmallerMessages: a message takes the smallest free
// slab that holds it and is less than twice its size, and goes back
// whole; one that no free slab fits gets a slab of its own size.
func TestSlabPoolFitsSmallerMessages(t *testing.T) {
	p := slabPool{armed: true}
	big, small := p.get(100), p.get(70)
	p.put(big)
	p.put(small)
	if got := p.get(60); len(got) != 60 || &got[0] != &small[0] {
		t.Fatal("a 60-byte message did not take the free 70-byte slab")
	}
	if got := p.get(51); len(got) != 51 || &got[0] != &big[0] {
		t.Fatal("a 51-byte message did not take the free 100-byte slab")
	}
	p.put(big[:51])
	if got := p.get(50); cap(got) != 50 {
		t.Fatalf("a 50-byte message took a %d-byte slab, twice its size", cap(got))
	}
	if len(p.free[100]) != 1 {
		t.Fatal("a recycled slab went back under its message size, not its own")
	}
}

// TestTCPOversizeFrameAllocatesNothing: a frame whose length prefix
// exceeds the receive limit is refused on the prefix, before any
// buffer is allocated for it — a corrupt or hostile prefix cannot make
// the receiver allocate 2 GiB.
func TestTCPOversizeFrameAllocatesNothing(t *testing.T) {
	cli, srv := tcpConnPair(t)
	m, err := NewMessenger(srv, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// A refused message's body is discarded by the next Recv, which
	// then returns the message after it.
	var hdr [4]byte
	frame := func(body []byte) []byte {
		binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
		return append(hdr[:], body...)
	}
	go cli.Write(append(frame(make([]byte, 100<<10)), frame([]byte("next"))...))
	if _, err := m.Recv(); err != ErrTooLarge {
		t.Fatalf("Recv err = %v, want ErrTooLarge", err)
	}
	if got, err := m.Recv(); err != nil || string(got) != "next" {
		t.Fatalf("Recv after a refused message = %q, %v; want \"next\"", got, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	binary.BigEndian.PutUint32(hdr[:], 1<<31)
	if _, err := cli.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := m.Recv()
		got <- err
	}()
	select {
	case err = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("no receive completion for an oversize frame")
	}
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Recv err = %v, want ErrTooLarge", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("%d bytes allocated refusing an oversize frame, want < 1 MB", d)
	}
}

// BenchmarkMessengerHop512K streams ring-hop-shaped messages — a 64-byte
// header and a 512 KB payload, each one vectored write on the sending
// goroutine — over a loopback TCP Messenger pair whose receiver
// recycles each slab, as the live ring does: B/op ≈ 0.
func BenchmarkMessengerHop512K(b *testing.B) {
	const payload = 512 << 10
	a, r := tcpMessengerPair(b, 64+payload)
	parts := [][]byte{make([]byte, 64), make([]byte, payload)}
	stream := func(n int) {
		recvd := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				data, err := r.Recv()
				if err != nil {
					recvd <- err
					return
				}
				r.Recycle(data)
			}
			recvd <- nil
		}()
		for i := 0; i < n; i++ {
			if err := a.SendVectored(parts); err != nil {
				b.Fatal(err)
			}
		}
		if err := <-recvd; err != nil {
			b.Fatal(err)
		}
	}
	// Warm: the first slab and the gather array are allocated here, not
	// in the timed stream.
	stream(8)
	b.SetBytes(64 + payload)
	b.ReportAllocs()
	b.ResetTimer()
	stream(b.N)
}

// TestMessengerPoolBounded checks the send-region byte cap: a messenger
// with huge messages gets fewer regions, never zero.
func TestMessengerPoolBounded(t *testing.T) {
	ca, _ := tcpConnPair(t)
	m, err := NewMessenger(ca, maxSendPoolBytes) // one region fills the cap
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := cap(m.sendFree); got != 1 {
		t.Fatalf("pool size = %d regions, want 1 at the byte cap", got)
	}
	cc, _ := tcpConnPair(t)
	small, err := NewMessenger(cc, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if got := cap(small.sendFree); got != MessengerSendRegions {
		t.Fatalf("pool size = %d regions, want %d for small messages", got, MessengerSendRegions)
	}
}

// TestMessengerNoLostCompletion is the regression test for the lost send
// completion: a send's completion once raced its bookkeeping and was
// dropped, and the sender waited forever. Short sends over fresh pairs
// hit that window within a few hundred rounds. The pairs are in-memory
// pipes under the messenger's framing: the race was inside the
// messenger, and 2,000 real connections would litter the ephemeral
// port range other packages' tests bind in.
func TestMessengerNoLostCompletion(t *testing.T) {
	for round := 1; round <= 2000; round++ {
		near, far := net.Pipe()
		a, err := NewMessenger(near, 64)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewMessenger(far, 64)
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
