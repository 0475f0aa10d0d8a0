package bat

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// wireCases covers every column kind and property combination the codec
// must carry: dense, sorted, zero-copy views, empty, and nil vectors.
func wireCases() []*BAT {
	longStrs := make([]string, 100)
	for i := range longStrs {
		longStrs[i] = strings.Repeat("x", i%17)
	}
	sortedInts := MakeInts("sorted", []int64{5, 3, 1, 4}).SortT(false)
	bools := make([]bool, 13)
	for i := range bools {
		bools[i] = i%3 == 0
	}
	return []*BAT{
		MakeInts("ints", []int64{1, -2, 3, 1 << 62}),
		MakeFloats("floats", []float64{1.5, -2.25, 0, -0.0}),
		MakeStrs("strs", []string{"a", "", "hello world", "\x00bin\xff"}),
		New("longstrs", DenseColumn(7, len(longStrs)), StrColumn(longStrs)),
		MakeOids("oids", []Oid{0, 5, NilOid}),
		New("bools", DenseColumn(10, len(bools)), BoolColumn(bools)),
		New("bools8", DenseColumn(0, 8), BoolColumn(make([]bool, 8))),
		New("densedense", DenseColumn(3, 5), DenseColumn(100, 5)),
		New("oid-oid", OidColumn([]Oid{9, 2}), OidColumn([]Oid{1, NilOid})),
		sortedInts,
		sortedInts.Slice(1, 3), // zero-copy view of a sorted BAT
		MakeInts("empty", nil),
		MakeStrs("emptystrs", nil),
		New("emptybools", DenseColumn(0, 0), BoolColumn(nil)),
		New("named", DenseColumn(0, 2), IntColumn([]int64{1, 2})),
	}
}

// narrowWireCases are int and decimal float columns in each narrow
// width: references at both ends of the int64 range and of either sign,
// sorted ones, views, odd lengths whose payload needs padding, and a
// shuffled OID head; and dictionary string columns of one- and two-byte
// codes, sorted, holding the empty string, as a view, and as a head.
func narrowWireCases() []*BAT {
	flags := Narrow(MakeStrs("flags", []string{"R", "A", "N", "A", "", "R", "N", "N", "A", "R", "A"}))
	segments := MakeStrs("segments", []string{"AUTOMOBILE", "AUTOMOBILE", "BUILDING", "BUILDING", "BUILDING", "HOUSEHOLD", "MACHINERY"})
	segments.Tail().SetSorted(true)
	many := make([]string, 4000)
	for i := range many {
		many[i] = fmt.Sprintf("k%03d", i%300)
	}
	sorted := MakeInts("sorted16", []int64{-40000, -3, 7, 20000})
	sorted.Tail().SetSorted(true)
	w2 := Narrow(MakeInts("w2", []int64{1000, 1 << 15, 5, 999, 65535}))
	price := Narrow(MakeFloats("price", []float64{900, 999.99, 912.34, 950.5, 901.01}))
	discount := MakeFloats("discount", []float64{0, 0.01, 0.05, 0.07, 0.1})
	discount.Tail().SetSorted(true)
	return []*BAT{
		Narrow(discount),
		price,
		price.Slice(1, 4),
		Narrow(MakeFloats("balance", []float64{-999.99, 9000.01, 0, -0.5})),
		Narrow(MakeFloats("whole", []float64{-3, 1 << 20, 7})),
		Narrow(MakeFloats("micro", []float64{1e-6, -2e-6, 3.5e-5})),
		Narrow(New("floathead", OidColumn([]Oid{9, 2, 5}), FloatColumn([]float64{0.3, 0.1, 0.2}))),
		Narrow(MakeInts("w1", []int64{19940101, 19940102, 19940356, 19940101, 19940200})),
		w2,
		w2.Slice(1, 4),
		Narrow(MakeInts("w4", []int64{math.MinInt64, math.MinInt64 + 1<<32 - 1, math.MinInt64 + 7})),
		Narrow(MakeInts("w1max", []int64{math.MaxInt64, math.MaxInt64 - 255, math.MaxInt64 - 3})),
		Narrow(sorted),
		Narrow(New("oidhead", OidColumn([]Oid{9, 2, 5}), IntColumn([]int64{3, 1, 2}))),
		flags,
		flags.Slice(2, 7),
		flags.Reverse(),
		Narrow(segments),
		Narrow(MakeStrs("dict2", many)),
	}
}

func colsEquivalent(t *testing.T, name string, want, got *Column) {
	t.Helper()
	if got.Kind() != want.Kind() || got.Len() != want.Len() {
		t.Fatalf("%s: kind/len mismatch: %v/%d vs %v/%d", name, got.Kind(), got.Len(), want.Kind(), want.Len())
	}
	if got.Dense() != want.Dense() || got.Base() != want.Base() {
		t.Fatalf("%s: density metadata mismatch", name)
	}
	if got.Sorted() != want.Sorted() {
		t.Fatalf("%s: sorted property mismatch: got %v want %v", name, got.Sorted(), want.Sorted())
	}
	for i := 0; i < want.Len(); i++ {
		if got.Value(i) != want.Value(i) {
			t.Fatalf("%s: row %d: got %v want %v", name, i, got.Value(i), want.Value(i))
		}
	}
}

// TestWireRoundtrip checks AppendMarshal/UnmarshalView round-trips
// every kind/property combination.
func TestWireRoundtrip(t *testing.T) {
	for _, b := range append(wireCases(), narrowWireCases()...) {
		data := AppendMarshal(nil, b)
		got, err := UnmarshalView(data)
		if err != nil {
			t.Fatalf("%s: UnmarshalView: %v", b.Name, err)
		}
		if got.Name != b.Name {
			t.Fatalf("name: got %q want %q", got.Name, b.Name)
		}
		for _, c := range [][2]*Column{{b.Head(), got.Head()}, {b.Tail(), got.Tail()}} {
			if c[1].Width() != c[0].Width() || c[1].exp != c[0].exp || len(c[1].dict) != len(c[0].dict) {
				t.Fatalf("%s: decoded width %d at 10^-%d with %d dictionary entries, encoded %d at 10^-%d with %d", b.Name,
					c[1].Width(), c[1].exp, len(c[1].dict), c[0].Width(), c[0].exp, len(c[0].dict))
			}
		}
		colsEquivalent(t, b.Name+".head", b.Head(), got.Head())
		colsEquivalent(t, b.Name+".tail", b.Tail(), got.Tail())
	}
}

// TestWireGobEquivalence decodes the codec's output and the gob
// baseline's output of the same BAT and checks they describe identical
// data — the proof that swapping the wire format is behaviour-neutral.
func TestWireGobEquivalence(t *testing.T) {
	for _, b := range wireCases() {
		gobBytes, err := Marshal(b)
		if err != nil {
			t.Fatalf("%s: gob Marshal: %v", b.Name, err)
		}
		viaGob, err := Unmarshal(gobBytes)
		if err != nil {
			t.Fatalf("%s: gob Unmarshal: %v", b.Name, err)
		}
		viaCodec, err := UnmarshalView(AppendMarshal(nil, b))
		if err != nil {
			t.Fatalf("%s: UnmarshalView: %v", b.Name, err)
		}
		if viaCodec.Name != viaGob.Name {
			t.Fatalf("%s: name diverges", b.Name)
		}
		colsEquivalent(t, b.Name+".head", viaGob.Head(), viaCodec.Head())
		colsEquivalent(t, b.Name+".tail", viaGob.Tail(), viaCodec.Tail())
	}
}

// TestMarshalSizeExact checks the size computation is byte-exact for
// every case — ring envelopes and RDMA regions are sized from it.
func TestMarshalSizeExact(t *testing.T) {
	for _, b := range append(wireCases(), narrowWireCases()...) {
		if got, want := len(AppendMarshal(nil, b)), MarshalSize(b); got != want {
			t.Fatalf("%s: encoded %d bytes, MarshalSize says %d", b.Name, got, want)
		}
	}
}

// TestAppendMarshalOffset encodes at a non-zero, non-aligned offset in
// dst and checks the message still decodes: padding is relative to the
// message start, not the buffer start.
func TestAppendMarshalOffset(t *testing.T) {
	b := MakeInts("off", []int64{1, 2, 3})
	prefix := []byte{0xAA, 0xBB, 0xCC} // deliberately misaligns the message
	data := AppendMarshal(append([]byte(nil), prefix...), b)
	if !bytes.Equal(data[:3], prefix) {
		t.Fatal("prefix clobbered")
	}
	msg := data[3:]
	if len(msg) != MarshalSize(b) {
		t.Fatalf("message is %d bytes, want %d", len(msg), MarshalSize(b))
	}
	got, err := UnmarshalView(msg)
	if err != nil {
		t.Fatal(err)
	}
	colsEquivalent(t, "off.tail", b.Tail(), got.Tail())
}

// TestWireLargeDense round-trips a dense×dense BAT whose row count far
// exceeds the message's byte size: dense columns carry no payload, so
// the decoder's plausibility bound must not apply to them (regression —
// dense fragments over ~500 rows were once rejected as corrupt).
func TestWireLargeDense(t *testing.T) {
	b := New("huge", DenseColumn(5, 1_000_000), DenseColumn(1<<40, 1_000_000))
	data := AppendMarshal(nil, b)
	if len(data) > 100 {
		t.Fatalf("dense×dense encoded to %d bytes, expected a few dozen", len(data))
	}
	got, err := UnmarshalView(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != b.Len() || got.Head().Base() != 5 || got.Tail().Base() != 1<<40 {
		t.Fatalf("large dense BAT distorted: %v", got)
	}
}

// TestWireVersionRejected flips the version byte and expects rejection.
func TestWireVersionRejected(t *testing.T) {
	data := AppendMarshal(nil, MakeInts("v", []int64{1}))
	data[2] = WireVersion + 1
	if _, err := UnmarshalView(data); err == nil {
		t.Fatal("future version accepted")
	}
	data[2] = 0
	if _, err := UnmarshalView(data); err == nil {
		t.Fatal("version 0 accepted")
	}
}

// TestWireCorruptInputs exercises systematic corruption: every
// truncation length of a valid message, bad magic, and byte flips in
// the header region must error (or succeed) without panicking.
func TestWireCorruptInputs(t *testing.T) {
	for _, b := range append(wireCases(), narrowWireCases()...) {
		data := AppendMarshal(nil, b)
		for n := 0; n < len(data); n++ {
			UnmarshalView(data[:n]) // must not panic; error expected but not required at n==len
		}
		for i := 0; i < len(data) && i < 64; i++ {
			cp := append([]byte(nil), data...)
			cp[i] ^= 0xFF
			UnmarshalView(cp) // must not panic
		}
	}
	if _, err := UnmarshalView([]byte("definitely not a bat")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := UnmarshalView(nil); err == nil {
		t.Fatal("nil input accepted")
	}
}

// TestWireRejectsBadWidths: an int or float column's width byte must be
// 1, 2, 4 or 8; every other column's must be 0 — dense ones included.
// An exponent belongs on a narrow float column only, and must index the
// 10^e table; a code bound must fit the width; a narrow payload must be
// there in full.
func TestWireRejectsBadWidths(t *testing.T) {
	ints := Narrow(New("w", DenseColumn(0, 5), IntColumn([]int64{3, 9, 4, 300, 7})))
	decimals := Narrow(New("d", DenseColumn(0, 5), FloatColumn([]float64{0.03, 0.09, 0.04, 3, 0.07})))
	if w, e := decimals.Tail().Width(), decimals.Tail().exp; w != 2 || e != 2 {
		t.Fatalf("the decimal column is %d bytes wide at 10^-%d, want 2 at 10^-2", w, e)
	}
	for _, b := range []*BAT{ints, decimals} {
		data := AppendMarshal(nil, b)
		head := wireHdrSize + pad8(len(b.Name)) // the dense head's column header
		tail := head + colHdrSize
		if _, err := UnmarshalView(data); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			what string
			at   int // the column header's offset
			set  map[int]byte
		}{
			{"width 0", tail, map[int]byte{2: 0}},
			{"width 3", tail, map[int]byte{2: 3}},
			{"width 16", tail, map[int]byte{2: 16}},
			{"a float column of width 0", tail, map[int]byte{0: byte(KFloat), 2: 0}},
			{"a float column of width 5", tail, map[int]byte{0: byte(KFloat), 2: 5}},
			{"width on an oid column", tail, map[int]byte{0: byte(KOid), 2: 8}},
			{"width on a dense column", head, map[int]byte{2: 8}},
			{"an exponent on an int column", tail, map[int]byte{0: byte(KInt), 3: 2}},
			{"an exponent on a wide float column", tail, map[int]byte{0: byte(KFloat), 2: 8, 3: 1}},
			{"an exponent on a dense column", head, map[int]byte{3: 1}},
			{"an exponent past the 10^e table", tail, map[int]byte{0: byte(KFloat), 3: byte(len(pow10))}},
			{"an exponent of 255", tail, map[int]byte{0: byte(KFloat), 3: 255}},
			{"a code bound past the width", tail, map[int]byte{6: 1}},
		} {
			cp := append([]byte(nil), data...)
			for off, v := range c.set {
				cp[c.at+off] = v
			}
			if _, err := UnmarshalView(cp); err == nil {
				t.Errorf("%s: %s accepted", b.Name, c.what)
			}
		}
		for n := 0; n < len(data); n++ {
			if _, err := UnmarshalView(data[:n]); err == nil {
				t.Fatalf("%s: a narrow message cut to %d of its %d bytes accepted", b.Name, n, len(data))
			}
		}
	}
	// The largest exponent the table holds decodes.
	b := Narrow(MakeFloats("e22", []float64{1e-22, 3e-22}))
	if e := b.Tail().exp; int(e) != len(pow10)-1 {
		t.Fatalf("1e-22 narrowed at 10^-%d, want 10^-%d", e, len(pow10)-1)
	}
	got, err := UnmarshalView(AppendMarshal(nil, b))
	if err != nil {
		t.Fatal(err)
	}
	colsEquivalent(t, "e22.tail", b.Tail(), got.Tail())
}

// badDict is a dictionary column's message damaged in one way the
// decoder must refuse.
type badDict struct {
	what string
	data []byte
}

// badDictMessages damages a message whose tail is a dictionary column of
// one-byte codes under the dictionary "A", "N", "R" in each way the
// decoder refuses: a width other than 1, 2 or 4, a base, a bound past
// what the width holds, a dictionary that does not ascend strictly, and
// a code past the bound.
func badDictMessages(tb testing.TB) []badDict {
	b := Narrow(MakeStrs("d", []string{"N", "A", "R", "A", "N", "A"}))
	data := AppendMarshal(nil, b)
	tail := wireHdrSize + pad8(len(b.Name)) + colHdrSize // the dense head carries no payload
	codes := tail + colHdrSize
	dict := codes + pad8(b.Len())
	blob := dict + pad8(8+4*3)
	if w, top := b.Tail().Width(), b.Tail().narrow.top(); w != 1 || top != 2 || string(data[blob:blob+3]) != "ANR" {
		tb.Fatalf("the dictionary column is %d bytes wide under bound %d, heap %q", w, top, data[blob:blob+3])
	}
	if _, err := UnmarshalView(data); err != nil {
		tb.Fatal(err)
	}
	var out []badDict
	for _, c := range []struct {
		what string
		set  map[int]byte
	}{
		{"width 3", map[int]byte{tail + 2: 3}},
		{"width 8", map[int]byte{tail + 2: 8}},
		{"a base of 1", map[int]byte{tail + 8: 1}},
		{"a base of 2^56", map[int]byte{tail + 15: 1}},
		{"a bound past the width", map[int]byte{tail + 5: 1}},
		{"a repeated entry", map[int]byte{blob + 1: 'A'}},
		{"entries out of order", map[int]byte{blob: 'N', blob + 1: 'A'}},
		{"a code past the bound", map[int]byte{codes + 4: 3}},
		{"a code of 255", map[int]byte{codes: 255}},
	} {
		cp := append([]byte(nil), data...)
		for off, v := range c.set {
			cp[off] = v
		}
		out = append(out, badDict{c.what, cp})
	}
	return out
}

// TestWireRejectsBadDicts: the decoder refuses every damaged dictionary
// column of badDictMessages, and a dictionary message cut short.
func TestWireRejectsBadDicts(t *testing.T) {
	for _, c := range badDictMessages(t) {
		if _, err := UnmarshalView(c.data); err == nil {
			t.Errorf("%s accepted", c.what)
		}
	}
	data := AppendMarshal(nil, Narrow(MakeStrs("d", []string{"N", "A", "R", "A", "N", "A"})))
	for n := 0; n < len(data); n++ {
		if _, err := UnmarshalView(data[:n]); err == nil {
			t.Fatalf("a dictionary message cut to %d of its %d bytes accepted", n, len(data))
		}
	}
}

// FuzzUnmarshal feeds arbitrary bytes to UnmarshalView: it must never
// panic, only return errors or valid BATs.
func FuzzUnmarshal(f *testing.F) {
	for _, b := range wireCases() {
		f.Add(AppendMarshal(nil, b))
	}
	f.Add([]byte{})
	f.Add(append([]byte{wireMagic0, wireMagic1, WireVersion, 0}, "garbage"...))
	for _, b := range narrowWireCases() {
		f.Add(AppendMarshal(nil, b))
	}
	for _, c := range badDictMessages(f) {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := UnmarshalView(data)
		if err != nil {
			return
		}
		// A successfully decoded BAT must be internally consistent
		// enough to walk without panicking.
		for i := 0; i < b.Len(); i++ {
			_ = b.Head().Value(i)
			_ = b.Tail().Value(i)
		}
	})
}

// TestMarshalVecConcatenation: the slices MarshalVec returns concatenate
// to AppendMarshal's bytes, for every head and tail form a column can
// take — dense, oid, wide int and float, narrow int and decimal float at
// each width, str, dictionary str, bool, empty — under names of every
// length mod 8, and each fixed-width vector among them — 8-byte values
// or codes — is the column's own memory. A head of codes whose length is
// no multiple of 8, followed by a padded payload, is among them.
func TestMarshalVecConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	tails := map[string]func(n int) *Column{
		"dense": func(n int) *Column { return DenseColumn(Oid(rng.Intn(1000)), n) },
		"oid": func(n int) *Column {
			v := make([]Oid, n)
			for i := range v {
				v[i] = Oid(rng.Int63())
			}
			return OidColumn(v)
		},
		"int": func(n int) *Column {
			v := make([]int64, n)
			for i := range v {
				v[i] = rng.Int63() - rng.Int63()
			}
			return IntColumn(v)
		},
		"float": func(n int) *Column {
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64() * 1e300
			}
			return FloatColumn(v)
		},
		"str": func(n int) *Column {
			v := make([]string, n)
			for i := range v {
				v[i] = strings.Repeat("s", rng.Intn(12))
			}
			return StrColumn(v)
		},
		"bool": func(n int) *Column {
			v := make([]bool, n)
			for i := range v {
				v[i] = rng.Intn(2) == 0
			}
			return BoolColumn(v)
		},
	}
	// narrowTail is a column that narrows to width bytes: its codes span
	// exactly [0, 2^(8·width) − 1] above a random reference, as ints or
	// as hundredths.
	narrowTail := func(n, width int, decimal bool) *Column {
		ref, top := rng.Int63n(1<<40)-1<<39, int64(1)<<(8*width)-1
		k := make([]int64, max(n, 2))
		k[0], k[1] = ref, ref+top
		for i := 2; i < len(k); i++ {
			k[i] = ref + rng.Int63n(top+1)
		}
		rng.Shuffle(len(k), func(i, j int) { k[i], k[j] = k[j], k[i] })
		if !decimal {
			return Narrow(New("", DenseColumn(0, len(k)), IntColumn(k))).Tail()
		}
		f := make([]float64, len(k))
		for i, x := range k {
			f[i] = float64(x) / 100
		}
		return Narrow(New("", DenseColumn(0, len(f)), FloatColumn(f))).Tail()
	}
	// dictTail is a dictionary column of 1 to 3 values, or of 300 and
	// two-byte codes; at least 8 rows, so that it is coded.
	dictTail := func(n int) *Column {
		d := []int{1 + rng.Intn(3), 300}[rng.Intn(2)]
		n = max(n, 8, 2*d)
		v := make([]string, n)
		for i := range v {
			v[i] = fmt.Sprintf("d%d", rng.Intn(d))
		}
		return Narrow(MakeStrs("", v)).Tail()
	}
	forms := []string{"dense", "oid", "int", "float", "str", "bool"}
	// draw is a column of some form of n rows, or — a narrow form — of
	// at least 2.
	draw := func(n int) (string, *Column) {
		switch pick := rng.Intn(len(tails) + 7); {
		case pick < len(tails):
			return forms[pick], tails[forms[pick]](n)
		case pick == len(tails)+6:
			c := dictTail(n)
			if c.narrow == nil {
				t.Fatalf("%d strings stayed plain", c.Len())
			}
			return fmt.Sprintf("dict(width %d)", c.Width()), c
		default:
			width, decimal := []int{1, 2, 4}[(pick-len(tails))%3], pick-len(tails) >= 3
			form := fmt.Sprintf("narrow(width %d, decimal %v)", width, decimal)
			c := narrowTail(n, width, decimal)
			if c.Width() != width || (decimal && c.exp == 0) {
				t.Fatalf("%s: narrowed to width %d at 10^-%d", form, c.Width(), c.exp)
			}
			return form, c
		}
	}
	for round := 0; round < 600; round++ {
		n := rng.Intn(40)
		if round%10 == 0 {
			n = 0
		}
		name := strings.Repeat("n", round%10)
		form, tail := draw(n)
		var head *Column
		var hform string
		for head == nil || head.Len() != tail.Len() { // a narrow form may have drawn more rows
			hform, head = draw(tail.Len())
		}
		b := New(name, head, tail)
		vecs := MarshalVec(b)
		if got, want := bytes.Join(vecs, nil), AppendMarshal(nil, b); !bytes.Equal(got, want) {
			t.Fatalf("round %d, %s head, %s tail, %d rows, name %q: MarshalVec gives %d bytes, AppendMarshal %d (or other bytes)",
				round, hform, form, tail.Len(), name, len(got), len(want))
		}
		for _, c := range []*Column{head, tail} {
			lo, _ := c.Span()
			if (c.Width() != 8 && c.narrow == nil) || lo == 0 {
				continue
			}
			aliased := false
			for _, v := range vecs {
				aliased = aliased || uintptr(unsafe.Pointer(unsafe.SliceData(v))) == lo
			}
			if !aliased {
				t.Fatalf("round %d, %s tail: a %d-byte %s vector was copied, not aliased", round, form, c.Width(), c.Kind())
			}
		}
	}
}
