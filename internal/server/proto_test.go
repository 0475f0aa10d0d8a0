package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/bat"
	"repro/internal/mal"
)

// The handshake and result set the round-trip tests pin down; the fuzz
// targets start from their encodings.
var membershipHello = Hello{
	Node: 2, Ring: 5, MaxInFlight: 8,
	ViewVersion: 7,
	Addrs:       []string{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"},
	Alive:       []bool{true, false, true},
}

// helloLayout writes h's handshake bytes the slow way, field by field.
func helloLayout(h Hello) []byte {
	le := binary.LittleEndian
	b := le.AppendUint64(nil, uint64(h.Node))
	b = le.AppendUint64(b, uint64(h.Ring))
	b = le.AppendUint64(b, uint64(h.MaxInFlight))
	b = le.AppendUint64(b, uint64(h.ViewVersion))
	b = le.AppendUint32(b, uint32(len(h.Addrs)))
	for i, a := range h.Addrs {
		alive := byte(0)
		if h.Alive[i] {
			alive = 1
		}
		b = append(le.AppendUint32(append(b, alive), uint32(len(a))), a...)
	}
	return b
}

// withRingSection appends the per-node ring-label section a server in
// front of a two-ring runtime used to send after the membership entries.
func withRingSection(payload []byte, labels ...string) []byte {
	b := binary.LittleEndian.AppendUint32(append([]byte(nil), payload...), uint32(len(labels)))
	for _, l := range labels {
		b = append(append(b, byte(len(l))), l...)
	}
	return b
}

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

// narrowResult is a projection's result as a node serves it: columns
// in the codes of widths 1, 2 and 4 above a reference, a decimal one in
// hundredths and a string one in dictionary codes, each under a dense
// head.
func narrowResult(f *testing.F) *mal.ResultSet {
	f.Helper()
	rs := &mal.ResultSet{}
	for _, c := range []struct {
		name  string
		width int
		b     *bat.BAT
	}{
		{"w1", 1, bat.MakeInts("w1", []int64{-7, 200, 0, 5})},
		{"w2", 2, bat.MakeInts("w2", []int64{1 << 40, 1<<40 + 60000, 1<<40 + 3})},
		{"w4", 4, bat.MakeInts("w4", []int64{-1 << 20, 1 << 30, 17})},
		{"price", 2, bat.MakeFloats("price", []float64{901.5, 1099.99, 950.01, 1000})},
		{"flags", 1, bat.MakeStrs("flags", []string{"R", "A", "N", "A", "R", "R"})},
	} {
		b := bat.Narrow(c.b)
		if w := b.Tail().Width(); w != c.width {
			f.Fatalf("%s narrows to %d bytes, want %d", c.name, w, c.width)
		}
		rs.Names, rs.Cols = append(rs.Names, c.name), append(rs.Cols, b)
	}
	return rs
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
	if want := helloLayout(h); !bytes.Equal(payload, want) {
		t.Fatalf("hello bytes changed:\n got %x\nwant %x", payload, want)
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

// TestHelloIgnoresRingSection: a handshake that still carries the
// ring-label section after its membership entries — whole or cut
// anywhere — decodes to the membership it carries, the labels ignored.
func TestHelloIgnoresRingSection(t *testing.T) {
	h := membershipHello
	plain, err := EncodeHello(h)
	if err != nil {
		t.Fatal(err)
	}
	labelled := withRingSection(plain, "hot", "cold", "cold")
	for n := len(plain); n <= len(labelled); n++ {
		got, err := DecodeHello(labelled[:n])
		if err != nil {
			t.Fatalf("hello with %d trailing bytes: %v", n-len(plain), err)
		}
		if !reflect.DeepEqual(got, h) {
			t.Fatalf("hello with %d trailing bytes: got %+v want %+v", n-len(plain), got, h)
		}
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

// wideResult is wide_result's shape: rows × (int, int, float), each
// under a dense head as sql.resultSet leaves it.
func wideResult(rows int) *mal.ResultSet {
	ints, floats := make([]int64, rows), make([]float64, rows)
	for i := range ints {
		ints[i], floats[i] = int64(i), float64(i)/4
	}
	return &mal.ResultSet{
		Names: []string{"l_orderkey", "l_suppkey", "l_extendedprice"},
		Cols:  []*bat.BAT{bat.MakeInts("k", ints), bat.MakeInts("s", ints), bat.MakeFloats("p", floats)},
	}
}

// TestResultVecLayout: the frame bytes are the documented layout, and
// ResultVec's slices join to them.
func TestResultVecLayout(t *testing.T) {
	for _, rs := range []*mal.ResultSet{mixedResult(), wideResult(5), {}} {
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
		vecs, n, err := ResultVec(rs)
		if err != nil {
			t.Fatal(err)
		}
		if joined := bytes.Join(vecs, nil); n != len(want) || !bytes.Equal(joined, want) {
			t.Fatalf("%v: ResultVec joins to %d bytes and reports %d, want the %d of EncodeResult", rs.Names, len(joined), n, len(want))
		}
	}
	if frame, _ := EncodeResult(mixedResult()); !bytes.HasPrefix(frame, []byte("\x00\x00\x00\x04\x00\x00\x00\x02id")) {
		t.Fatal("frame no longer starts with the big-endian column count and first name")
	}
	if _, _, err := ResultVec(&mal.ResultSet{Names: []string{"a", "b"}, Cols: []*bat.BAT{bat.MakeInts("a", nil)}}); err == nil {
		t.Fatal("two names for one column accepted")
	}
}

// TestResultVecCopiesNoValue: building a 500,000 × 3 result's slices
// takes as many allocations as building a 5-row one's, and a few
// kilobytes against the frame's 12 MB: the values are not copied.
func TestResultVecCopiesNoValue(t *testing.T) {
	big, small := wideResult(500_000), wideResult(5)
	// Both counts are the whole process's: keep the collector, which
	// allocates on its own, out of them.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(rs *mal.ResultSet) float64 {
		return testing.AllocsPerRun(5, func() { ResultVec(rs) })
	}
	if a, b := allocs(big), allocs(small); a != b {
		t.Fatalf("ResultVec took %.0f allocations for 500,000 rows and %.0f for 5", a, b)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, n, err := ResultVec(big)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("ResultVec allocated %d bytes for a %d-byte frame", got, n)
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

// TestOversizedHeaderAllocatesLittle: a request whose header claims the
// whole frame limit and whose payload never comes costs the server what
// it received, not the limit. Read into one buffer of the claimed size,
// four connections that each sent only such a header held 256 MB.
func TestOversizedHeaderAllocatesLittle(t *testing.T) {
	hdr := frameHeader(FrameQuery, DefaultMaxFrame)
	for _, sent := range []int{0, 100 << 10} {
		data := append(hdr[:], make([]byte, sent)...)
		// An overrun is measured a second time, so another goroutine's
		// allocation cannot pass for readRequest's.
		for try := 0; ; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := readRequest(bufio.NewReader(bytes.NewReader(data)), DefaultMaxFrame)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%d of %d payload bytes read without an error", sent, DefaultMaxFrame)
			}
			got := after.TotalAlloc - before.TotalAlloc
			if got < 1<<20 {
				break
			}
			if try == 1 {
				t.Fatalf("a header claiming %d bytes, followed by %d and EOF, allocated %d bytes", DefaultMaxFrame, sent, got)
			}
		}
	}
}

// TestBufferedQueryAllocatesOnce: a 200-byte query frame the handler's
// bufio.Reader holds whole is read with one allocation, the payload's
// own, and arrives intact; two frames back to back are both read.
func TestBufferedQueryAllocatesOnce(t *testing.T) {
	sql := bytes.Repeat([]byte("select 1;"), 23)[:200]
	var frames bytes.Buffer
	for k := 0; k < 2; k++ {
		if err := WriteFrame(&frames, FrameQuery, sql); err != nil {
			t.Fatal(err)
		}
	}
	data := frames.Bytes()
	src := bytes.NewReader(data)
	br := bufio.NewReader(src)
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(data)
		br.Reset(src)
		for k := 0; k < 2; k++ {
			typ, payload, err := readRequest(br, DefaultMaxFrame)
			if err != nil || typ != FrameQuery || !bytes.Equal(payload, sql) {
				t.Fatalf("frame %d read as type %d, %d bytes, err %v", k, typ, len(payload), err)
			}
		}
	})
	if allocs != 2 {
		t.Errorf("two buffered 200-byte query frames took %v allocations, want 1 each", allocs)
	}
}

// FuzzReadFrame feeds arbitrary bytes to ReadFrame under a limit: it
// must not panic, must never allocate for a payload past the limit, a
// frame it accepts must re-encode to the bytes it was read from, and
// readRequest must read the same frame or fail where it fails.
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
	// Payloads of 10–12 bytes followed by more: a 16-byte buffer holds
	// 11 payload bytes past the header, so these sit on either side of
	// readRequest's buffered-whole test.
	for n := 10; n <= 12; n++ {
		var b bytes.Buffer
		WriteFrame(&b, FrameQuery, bytes.Repeat([]byte("q"), n))
		WriteFrame(&b, FrameStats, nil)
		f.Add(b.Bytes(), uint16(64))
	}
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
		// The server's reader of client frames reads what ReadFrame does,
		// from a buffer that holds a payload whole and from one that
		// holds at most 11 payload bytes.
		for _, size := range []int{4096, 16} {
			rtyp, rpayload, rerr := readRequest(bufio.NewReaderSize(bytes.NewReader(data), size), limit)
			if (rerr == nil) != (err == nil) || rtyp != typ || !bytes.Equal(rpayload, payload) {
				t.Fatalf("readRequest (%d-byte buffer) read %d %x (%v), ReadFrame %d %x (%v)", size, rtyp, rpayload, rerr, typ, payload, err)
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
	for _, h := range []Hello{membershipHello, {Node: 1, Ring: 3, MaxInFlight: 4}} {
		payload, err := EncodeHello(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(payload[:helloSize])
	}
	// A trailing ring-label section, whole and cut mid-label.
	plain, _ := EncodeHello(membershipHello)
	labelled := withRingSection(plain, "hot", "hot", "cold")
	f.Add(labelled)
	f.Add(labelled[:len(labelled)-2])
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
// and column bytes — the encoder's output is its canonical form. The
// seeds include a projection's narrow columns, the form every large
// result arrives in.
func FuzzDecodeResult(f *testing.F) {
	for _, rs := range []*mal.ResultSet{
		mixedResult(), narrowResult(f), {},
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
