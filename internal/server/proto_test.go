package server

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/bat"
	"repro/internal/mal"
)

func TestHelloRoundtrip(t *testing.T) {
	h := Hello{
		Node: 2, Ring: 5, MaxInFlight: 8,
		ViewVersion: 7,
		Addrs:       []string{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"},
		Alive:       []bool{true, false, true},
	}
	payload, err := EncodeHello(h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("got %+v want %+v", got, h)
	}
	if _, err := DecodeHello(payload[:10]); err == nil {
		t.Fatal("truncated hello accepted")
	}
	// Every truncation of the membership section must error, not panic.
	for n := helloSize + 1; n < len(payload); n++ {
		if _, err := DecodeHello(payload[:n]); err == nil {
			t.Fatalf("truncated hello of %d bytes accepted", n)
		}
	}
}

func TestHelloLegacyDecode(t *testing.T) {
	// A bare 24-byte payload is the pre-membership handshake: it must
	// decode with an empty routing cache.
	full, err := EncodeHello(Hello{Node: 1, Ring: 3, MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHello(full[:helloSize])
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != 1 || got.Ring != 3 || got.MaxInFlight != 4 {
		t.Fatalf("legacy hello distorted: %+v", got)
	}
	if got.ViewVersion != 0 || got.Addrs != nil || got.Alive != nil {
		t.Fatalf("legacy hello grew membership state: %+v", got)
	}
	if _, err := EncodeHello(Hello{Addrs: []string{"a"}, Alive: nil}); err == nil {
		t.Fatal("mismatched addrs/alive accepted")
	}
}

func TestHelloRingsRoundtrip(t *testing.T) {
	h := Hello{
		Node: 1, Ring: 4, MaxInFlight: 8,
		ViewVersion: 3,
		Addrs:       []string{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003", "127.0.0.1:9004"},
		Alive:       []bool{true, true, true, false},
		Rings:       []string{"hot", "hot", "cold", "cold"},
	}
	payload, err := EncodeHello(h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("got %+v want %+v", got, h)
	}
	// A single-ring payload (no ring section) must decode with nil
	// labels — and be byte-identical to what the pre-tiering encoder
	// produced, which the existing round-trip tests pin down.
	plain := h
	plain.Rings = nil
	payloadPlain, err := EncodeHello(plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloadPlain) >= len(payload) {
		t.Fatal("ring section added no bytes")
	}
	gotPlain, err := DecodeHello(payloadPlain)
	if err != nil {
		t.Fatal(err)
	}
	if gotPlain.Rings != nil {
		t.Fatalf("plain hello grew ring labels: %+v", gotPlain)
	}
	// Every truncation of the ring entries must error, not panic. (Cuts
	// inside the leading count word leave fewer than 4 trailing bytes,
	// which decode as a plain hello — the same lenience that keeps old
	// decoders compatible.)
	for n := len(payloadPlain) + 4; n < len(payload); n++ {
		if _, err := DecodeHello(payload[:n]); err == nil {
			t.Fatalf("truncated ring section of %d bytes accepted", n)
		}
	}
	// Label count must match the node count on both sides.
	if _, err := EncodeHello(Hello{
		Addrs: []string{"a", "b"}, Alive: []bool{true, true}, Rings: []string{"hot"},
	}); err == nil {
		t.Fatal("mismatched ring label count accepted")
	}
}

func TestResultRoundtrip(t *testing.T) {
	rs := &mal.ResultSet{
		Names: []string{"id", "name", "score", "flag"},
		Cols: []*bat.BAT{
			bat.MakeInts("id", []int64{1, 2, 3}),
			bat.MakeStrs("name", []string{"a", "", "ccc"}),
			bat.MakeFloats("score", []float64{0.5, -1, 2.25}),
			bat.New("flag", bat.DenseColumn(0, 3), bat.BoolColumn([]bool{true, false, true})),
		},
	}
	payload, err := EncodeResult(rs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cols) != len(rs.Cols) {
		t.Fatalf("got %d columns, want %d", len(got.Cols), len(rs.Cols))
	}
	for i, name := range rs.Names {
		if got.Names[i] != name {
			t.Fatalf("column %d name %q, want %q", i, got.Names[i], name)
		}
		want, g := rs.Cols[i], got.Cols[i]
		if g.Len() != want.Len() {
			t.Fatalf("column %q: %d rows, want %d", name, g.Len(), want.Len())
		}
		for r := 0; r < want.Len(); r++ {
			if g.Tail().Value(r) != want.Tail().Value(r) {
				t.Fatalf("column %q row %d: %v != %v", name, r, g.Tail().Value(r), want.Tail().Value(r))
			}
		}
	}
}

// TestAppendResultGrowsOnce: the frame size is computed, not grown
// into — one allocation of exactly the final size for a wide result —
// and the bytes are the documented layout, unchanged.
func TestAppendResultGrowsOnce(t *testing.T) {
	const rows = 500_000
	ints, floats := make([]int64, rows), make([]float64, rows)
	for i := range ints {
		ints[i], floats[i] = int64(i), float64(i)/4
	}
	wide := &mal.ResultSet{
		Names: []string{"l_orderkey", "l_quantity", "l_extendedprice"},
		Cols:  []*bat.BAT{bat.MakeInts("k", ints), bat.MakeInts("q", ints), bat.MakeFloats("p", floats)},
	}
	mixed := &mal.ResultSet{
		Names: []string{"id", "name", "flag"},
		Cols: []*bat.BAT{
			bat.MakeInts("id", []int64{1, 2, 3}),
			bat.MakeStrs("name", []string{"a", "", "ccc"}),
			bat.New("flag", bat.DenseColumn(0, 3), bat.BoolColumn([]bool{true, false, true})),
		},
	}
	for _, rs := range []*mal.ResultSet{wide, mixed, {}} {
		// The layout, written out the slow way.
		want := binary.BigEndian.AppendUint32(nil, uint32(len(rs.Cols)))
		for _, name := range rs.Names {
			want = append(binary.BigEndian.AppendUint32(want, uint32(len(name))), name...)
		}
		want = append(want, make([]byte, pad8(len(want))-len(want))...)
		for _, c := range rs.Cols {
			blob := bat.AppendMarshal(nil, c)
			want = append(binary.LittleEndian.AppendUint64(want, uint64(len(blob))), blob...)
			want = append(want, make([]byte, pad8(len(want))-len(want))...)
		}
		got, err := EncodeResult(rs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: frame bytes changed (%d bytes, want %d)", rs.Names, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Fatalf("%v: cap %d != len %d: the size is an estimate, not exact", rs.Names, cap(got), len(got))
		}
		// Appending behind a prefix keeps the prefix and the alignment.
		behind, err := AppendResult([]byte("12345678"), rs)
		if err != nil || !bytes.Equal(behind[8:], want) || string(behind[:8]) != "12345678" {
			t.Fatalf("%v: append behind a prefix: err %v", rs.Names, err)
		}
	}
	if frame, _ := EncodeResult(wide); !bytes.HasPrefix(frame, []byte("\x00\x00\x00\x03\x00\x00\x00\x0al_orderkey")) {
		t.Fatal("frame no longer starts with the big-endian column count and first name")
	}
	// AllocsPerRun counts the whole process: keep the collector, which
	// 12 MB frames would start and which allocates on its own, out of it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(5, func() { EncodeResult(wide) }); allocs > 1 {
		t.Fatalf("encoding a %d x 3 result took %.0f allocations, want 1", rows, allocs)
	}
}

func TestResultRoundtripEmpty(t *testing.T) {
	for _, rs := range []*mal.ResultSet{
		{},
		{Names: []string{"none"}, Cols: []*bat.BAT{bat.MakeInts("none", nil)}},
	} {
		payload, err := EncodeResult(rs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResult(payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Cols) != len(rs.Cols) || got.NumRows() != rs.NumRows() {
			t.Fatalf("empty result distorted: %+v", got)
		}
	}
}

func TestDecodeResultCorrupt(t *testing.T) {
	rs := &mal.ResultSet{Names: []string{"x"}, Cols: []*bat.BAT{bat.MakeInts("x", []int64{1, 2})}}
	payload, err := EncodeResult(rs)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation must error (or decode) without panicking.
	for n := 0; n < len(payload); n++ {
		DecodeResult(payload[:n])
	}
	if _, err := DecodeResult([]byte("\xff\xff\xff\xff nonsense")); err == nil {
		t.Fatal("garbage accepted")
	}
}
