package server

import (
	"bufio"
	"net"
	"testing"
)

// BenchmarkServeWideFrame writes a 500,000 × 3 result the way a node
// serves it (resultFrame, one vectored write) over a loopback TCP
// connection and reads it back as the client does (ReadFrame, then
// DecodeResult). MB/s is frame bytes; allocs/op counts both ends.
func BenchmarkServeWideFrame(b *testing.B) {
	const rows = 500_000
	rs := wideResult(rows)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		for i := 0; i < b.N; i++ {
			frame, err := resultFrame(rs, DefaultMaxFrame)
			if err == nil {
				_, err = frame.WriteTo(conn)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	_, n, _ := ResultVec(rs)
	b.SetBytes(int64(5 + n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		typ, payload, err := ReadFrame(br, DefaultMaxFrame)
		if err != nil {
			b.Fatal(err)
		}
		got, err := DecodeResult(payload)
		if err != nil || typ != FrameResult || got.NumRows() != rows {
			b.Fatalf("frame type %d, %v: want a %d-row result", typ, err, rows)
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}
