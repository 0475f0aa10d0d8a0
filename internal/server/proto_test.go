package server

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/bat"
	"repro/internal/mal"
)

// The handshakes and result set the round-trip tests pin down; the fuzz
// targets start from their encodings.
var (
	membershipHello = Hello{
		Node: 2, Ring: 5, MaxInFlight: 8,
		ViewVersion: 7,
		Addrs:       []string{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"},
		Alive:       []bool{true, false, true},
	}
	tieredHello = Hello{
		Node: 1, Ring: 4, MaxInFlight: 8,
		ViewVersion: 3,
		Addrs:       []string{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003", "127.0.0.1:9004"},
		Alive:       []bool{true, true, true, false},
		Rings:       []string{"hot", "hot", "cold", "cold"},
	}
)

func mixedResult() *mal.ResultSet {
	return &mal.ResultSet{
		Names: []string{"id", "name", "score", "flag"},
		Cols: []*bat.BAT{
			bat.MakeInts("id", []int64{1, 2, 3}),
			bat.MakeStrs("name", []string{"a", "", "ccc"}),
			bat.MakeFloats("score", []float64{0.5, -1, 2.25}),
			bat.New("flag", bat.DenseColumn(0, 3), bat.BoolColumn([]bool{true, false, true})),
		},
	}
}

func TestHelloRoundtrip(t *testing.T) {
	h := membershipHello
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
	h := tieredHello
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
	rs := mixedResult()
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

// FuzzReadFrame feeds arbitrary bytes to ReadFrame under a limit: it
// must not panic, must never allocate for a payload past the limit, and
// a frame it accepts must re-encode to the bytes it was read from.
func FuzzReadFrame(f *testing.F) {
	hello, _ := EncodeHello(membershipHello)
	result, _ := EncodeResult(mixedResult())
	for _, fr := range []struct {
		typ     byte
		payload []byte
	}{
		{FrameHello, []byte(Magic)}, {FrameHelloOK, hello}, {FrameQuery, []byte("select 1")},
		{FrameResult, result}, {FrameError, EncodeError(CodeRejected, "busy")}, {FrameStats, nil},
	} {
		var b bytes.Buffer
		WriteFrame(&b, fr.typ, fr.payload)
		f.Add(b.Bytes(), uint16(len(fr.payload)))
		f.Add(b.Bytes(), uint16(len(fr.payload)/2))
	}
	f.Add([]byte("\xff\xff\xff\xff\x04"), uint16(1024))
	f.Fuzz(func(t *testing.T, data []byte, max uint16) {
		limit := int(max)
		var (
			typ     byte
			payload []byte
			err     error
		)
		// Slack covers the reader, the error value and the runtime's own
		// small allocations; a length prefix obeyed past the limit shows
		// up as up to 4 GiB. An overrun is measured a second time, so
		// another goroutine's allocation cannot pass for ReadFrame's.
		bound := uint64(limit) + 64<<10
		for try := 0; try < 2; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			typ, payload, err = ReadFrame(bytes.NewReader(data), limit)
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			if got <= bound {
				break
			}
			if try == 1 {
				t.Fatalf("ReadFrame allocated %d bytes under a %d-byte limit", got, limit)
			}
		}
		if err != nil {
			return
		}
		if len(payload) > limit {
			t.Fatalf("payload of %d bytes under a %d-byte limit", len(payload), limit)
		}
		var b bytes.Buffer
		if err := WriteFrame(&b, typ, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, b.Bytes()) {
			t.Fatalf("frame re-encodes to %x, read from %x", b.Bytes(), data)
		}
	})
}

// FuzzDecodeHello: DecodeHello must reject or decode any payload without
// panicking, and what it decodes must re-encode to the bytes it came
// from, up to the decoder's documented leniencies — the 24-byte legacy
// form, any nonzero alive byte, and trailing bytes it ignores.
func FuzzDecodeHello(f *testing.F) {
	for _, h := range []Hello{membershipHello, tieredHello, {Node: 1, Ring: 3, MaxInFlight: 4}} {
		payload, err := EncodeHello(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(payload[:helloSize])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHello(data)
		if err != nil {
			return
		}
		enc, err := EncodeHello(h)
		if err != nil {
			t.Fatalf("decoded hello %+v does not re-encode: %v", h, err)
		}
		if len(data) == helloSize {
			if !bytes.Equal(enc[:helloSize], data) {
				t.Fatalf("legacy hello re-encodes to %x, read from %x", enc[:helloSize], data)
			}
			return
		}
		// The canonical alive byte is 0 or 1; normalise data's before
		// comparing.
		norm := append([]byte(nil), data...)
		off := helloSize + 12
		for i, a := range h.Addrs {
			if h.Alive[i] {
				norm[off] = 1
			}
			off += 5 + len(a)
		}
		if !bytes.HasPrefix(norm, enc) {
			t.Fatalf("hello re-encodes to %x, read from %x", enc, data)
		}
	})
}

// FuzzDecodeResult: DecodeResult must reject or decode any payload
// without panicking, every decoded column must be walkable, and a
// decoded result re-encodes to a frame that decodes to the same names
// and column bytes — the encoder's output is its canonical form.
func FuzzDecodeResult(f *testing.F) {
	for _, rs := range []*mal.ResultSet{
		mixedResult(), {},
		{Names: []string{"none"}, Cols: []*bat.BAT{bat.MakeInts("none", nil)}},
	} {
		payload, err := EncodeResult(rs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte("\xff\xff\xff\xff nonsense"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := DecodeResult(data)
		if err != nil {
			return
		}
		for _, c := range rs.Cols {
			for i := 0; i < c.Len(); i++ {
				_ = c.Head().Value(i)
				_ = c.Tail().Value(i)
			}
		}
		enc, err := EncodeResult(rs)
		if err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
		again, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("re-encoded result does not decode: %v", err)
		}
		if !reflect.DeepEqual(again.Names, rs.Names) {
			t.Fatalf("names %q came back as %q", rs.Names, again.Names)
		}
		if enc2, _ := EncodeResult(again); !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encoding is not a fixed point: %x then %x", enc, enc2)
		}
	})
}
