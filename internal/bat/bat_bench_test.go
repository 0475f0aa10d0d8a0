package bat

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkBAT* is the kernel microbenchmark suite the CI smoke-runs
// with -benchtime=1x. The "generic" sub-benchmarks exercise the boxed
// fallback path in generic.go so the typed/boxed gap stays measurable:
//
//	go test ./internal/bat -bench=BenchmarkBAT -benchmem
//
// Acceptance targets: typed unsorted Select and hash Join >= 2x the
// boxed baseline at 1M rows; sorted Select is O(log n + k), i.e. nearly
// size-independent for a fixed k (compare the /1M and /4M sorted subs).

const benchRows = 1 << 20 // ~1M

func benchIntBAT(n, domain int) *BAT {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(domain))
	}
	return MakeInts("bench", vals)
}

func BenchmarkBATSelect1M(b *testing.B) {
	bb := benchIntBAT(benchRows, 1000)
	lo := &Bound{Value: int64(100), Inclusive: true}
	hi := &Bound{Value: int64(199), Inclusive: true} // ~10% selectivity
	b.Run("typed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bb.Select(lo, hi)
		}
	})
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bb.selectGeneric(lo, hi)
		}
	})
}

// BenchmarkBATSelectSorted verifies the O(log n + k) claim: k is pinned
// at ~1000 rows while n quadruples, so ns/op should stay nearly flat.
func BenchmarkBATSelectSorted(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"1M", 1 << 20}, {"4M", 1 << 22}} {
		sorted := benchIntBAT(size.n, size.n).SortT(false)
		lo := &Bound{Value: int64(size.n / 2), Inclusive: true}
		hi := &Bound{Value: int64(size.n/2 + 1000), Inclusive: false}
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := sorted.Select(lo, hi); got.Len() > 1100 {
					b.Fatal("unexpected selectivity")
				}
			}
		})
	}
}

// BenchmarkBATSelectDense compares a dense OID tail (pure arithmetic)
// against the same range materialized.
func BenchmarkBATSelectDense(b *testing.B) {
	dense := New("dense", DenseColumn(0, benchRows), DenseColumn(0, benchRows))
	oids := make([]Oid, benchRows)
	for i := range oids {
		oids[i] = Oid(i)
	}
	mat := New("mat", DenseColumn(0, benchRows), OidColumn(oids))
	mat.Tail().SetSorted(true)
	lo := &Bound{Value: Oid(benchRows / 2), Inclusive: true}
	hi := &Bound{Value: Oid(benchRows/2 + 1000), Inclusive: false}
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dense.Select(lo, hi)
		}
	})
	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mat.Select(lo, hi)
		}
	})
}

func BenchmarkBATJoin1M(b *testing.B) {
	l := benchIntBAT(benchRows, 100_000)
	r := benchIntBAT(100_000, 100_000)
	rr := r.Reverse()
	b.Run("typed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Join(rr)
		}
	})
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.joinGeneric(rr)
		}
	})
}

func BenchmarkBATFetchJoin1M(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	vals := benchIntBAT(benchRows, 1000)
	pos := make([]Oid, benchRows)
	for i := range pos {
		pos[i] = Oid(rng.Intn(benchRows))
	}
	pb := MakeOids("pos", pos)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Join(vals)
	}
}

func BenchmarkBATGroupedSum1M(b *testing.B) {
	keys := benchIntBAT(benchRows, 100)
	vals := benchIntBAT(benchRows, 1000)
	b.Run("unsorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			groups, _ := keys.GroupIDs()
			GroupedSum(groups, vals)
		}
	})
	sortedKeys := keys.SortT(false)
	b.Run("sorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			groups, _ := sortedKeys.GroupIDs()
			GroupedSum(groups, vals)
		}
	})
}

func BenchmarkBATSlice(b *testing.B) {
	bb := benchIntBAT(benchRows, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.Slice(1000, benchRows-1000)
	}
}

// benchCandidates returns the candidate list of a ~sel-selective range
// select over a dense-headed 1M-row column: an ascending OID list.
func benchCandidates(seed int64, rows int, sel float64) *BAT {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(rng.Intn(1000))
	}
	return MakeInts("c", vals).USelect(nil, &Bound{Value: int64(1000 * sel)})
}

// unsortedCopy shares b's payload but drops the head's sorted flag, so
// Semijoin takes the hash path on the very same values.
func unsortedCopy(b *BAT) *BAT {
	h := *b.Head()
	h.SetSorted(false)
	return New(b.Name, &h, &h)
}

// BenchmarkBATSemijoinSorted1M intersects two ~30 %/~50 % candidate
// lists over 1M rows: linear merge against the typed hash set forced on
// the same inputs. Acceptance target: merge >= 10x hash.
func BenchmarkBATSemijoinSorted1M(b *testing.B) {
	l, r := benchCandidates(1, benchRows, 0.3), benchCandidates(2, benchRows, 0.5)
	want := l.Semijoin(r).Len()
	for _, c := range []struct {
		name string
		l, r *BAT
	}{{"merge", l, r}, {"hash", unsortedCopy(l), unsortedCopy(r)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := c.l.Semijoin(c.r).Len(); got != want {
					b.Fatalf("%d rows, want %d", got, want)
				}
			}
		})
	}
}

// BenchmarkBATSemijoinSkewed intersects a ~500 K-row list with a 4 K-row
// one, in both argument orders: the short side gallops through the long
// one instead of walking it.
func BenchmarkBATSemijoinSkewed(b *testing.B) {
	long, short := benchCandidates(1, benchRows, 0.5), benchCandidates(2, benchRows, 0.004)
	for _, c := range []struct {
		name string
		l, r *BAT
	}{{"long-short", long, short}, {"short-long", short, long}, {"long-short-hash", unsortedCopy(long), unsortedCopy(short)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.l.Semijoin(c.r)
			}
		})
	}
}

// q6Columns are Q6ish's four columns at 1M rows, drawn as the TPC-H
// generator draws them: shipdate keeps ~14 % of them, discount ~27 %,
// quantity ~46 %, all three ~1.8 %.
func q6Columns() (shipdate, discount, quantity, extprice *BAT) {
	rng := rand.New(rand.NewSource(6))
	date, disc, qty, price := make([]int64, benchRows), make([]float64, benchRows), make([]int64, benchRows), make([]float64, benchRows)
	for i := range date {
		date[i] = 19920101 + int64(rng.Intn(7))*10000
		disc[i] = float64(rng.Intn(11)) / 100
		qty[i] = 1 + int64(rng.Intn(50))
		price[i] = float64(90000+rng.Intn(10000)) / 100
	}
	return MakeInts("d", date), MakeFloats("f", disc), MakeInts("q", qty), MakeFloats("p", price)
}

var (
	q6DateLo, q6DateHi = &Bound{Value: int64(19940101), Inclusive: true}, &Bound{Value: int64(19950101)}
	q6DiscLo, q6DiscHi = &Bound{Value: 0.05, Inclusive: true}, &Bound{Value: 0.07, Inclusive: true}
	q6QtyHi            = &Bound{Value: int64(24)}
)

// q6Parts are q6Columns cut into 64K-row fragments with dense heads and
// narrowed as the ring stores them: shipdate 2 bytes, discount 1,
// quantity 1, extendedprice 2.
func q6Parts() (shipdate, discount, quantity, extprice []*BAT) {
	const frag = 64 << 10
	d, f, q, p := q6Columns()
	for at := 0; at < benchRows; at += frag {
		shipdate = append(shipdate, Narrow(d.Slice(at, at+frag)))
		discount = append(discount, Narrow(f.Slice(at, at+frag)))
		quantity = append(quantity, Narrow(q.Slice(at, at+frag)))
		extprice = append(extprice, Narrow(p.Slice(at, at+frag)))
	}
	return shipdate, discount, quantity, extprice
}

// BenchmarkBATQ6Candidates1M is Q6ish's kernel work over 1M rows: one
// full range select, two candidate-restricted ones chained behind it,
// one positional fetch and the sum. /wide runs it on whole wide
// columns; /coded per fragment on q6Parts. /conj is what minisql
// compiles: the three ranges as one SelectAll per fragment of q6Parts,
// then the same fetch and sum. /mask is what a served Q6's region runs:
// per fragment a SelectMask into an arena, SumKept at it and the mask's
// count, the arena released every iteration as a server does once the
// result frame is written (unpoisoned, as outside a test binary);
// /fused is what it runs since the select, the sum and the count fuse:
// one SelectSum per fragment, which on a VBMI2 CPU tests the terms and
// compresses the kept codes in one pass with no bitmap; /mask-go is
// /mask with the AVX-512 kernels off, the AVX2 blocks rejecting and
// gatherKept's loop gathering.
func BenchmarkBATQ6Candidates1M(b *testing.B) {
	q6 := func(shipdate, discount, quantity, extprice *BAT) any {
		c := shipdate.USelect(q6DateLo, q6DateHi)
		c = discount.USelectCand(c, q6DiscLo, q6DiscHi)
		c = quantity.USelectCand(c, nil, q6QtyHi)
		return c.Join(extprice).Sum()
	}
	benchQ6Forms(b, q6)
	ds, fs, qs, ps := q6Parts()
	b.Run("conj", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range ds {
				c := SelectAll([]Term{{ds[j], q6DateLo, q6DateHi}, {fs[j], q6DiscLo, q6DiscHi}, {qs[j], nil, q6QtyHi}})
				if c.Join(ps[j]).Sum() == nil {
					b.Fatal("no sum")
				}
			}
		}
	})
	mask := func(b *testing.B) {
		b.ReportAllocs()
		var a Arena
		for i := 0; i < b.N; i++ {
			for j := range ds {
				m := SelectMask([]Term{{ds[j], q6DateLo, q6DateHi}, {fs[j], q6DiscLo, q6DiscHi}, {qs[j], nil, q6QtyHi}}, &a)
				if SumKept(ps[j], m) == nil || m.Count() < 0 {
					b.Fatal("no sum")
				}
			}
			a.Release()
		}
	}
	poisoned, vbmi2 := poisonReleased, haveVBMI2
	defer func() { poisonReleased, haveVBMI2 = poisoned, vbmi2 }()
	poisonReleased = false
	b.Run("mask", mask)
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		var a Arena
		for i := 0; i < b.N; i++ {
			for j := range ds {
				if sum, count := SelectSum(ps[j], []Term{{ds[j], q6DateLo, q6DateHi}, {fs[j], q6DiscLo, q6DiscHi}, {qs[j], nil, q6QtyHi}}, &a); sum == nil || count < 0 {
					b.Fatal("no sum")
				}
			}
			a.Release()
		}
	})
	haveVBMI2 = false
	b.Run("mask-go", mask)
}

// BenchmarkBATQ6Intersect1M is the same query the way it ran before the
// chain: three full range selects, two merge intersections. Kept beside
// BenchmarkBATQ6Candidates1M so one command compares the two shapes.
func BenchmarkBATQ6Intersect1M(b *testing.B) {
	q6 := func(shipdate, discount, quantity, extprice *BAT) any {
		c := shipdate.USelect(q6DateLo, q6DateHi)
		c = c.Semijoin(discount.USelect(q6DiscLo, q6DiscHi))
		c = c.Semijoin(quantity.USelect(nil, q6QtyHi))
		return c.Join(extprice).Sum()
	}
	benchQ6Forms(b, q6)
}

// benchQ6Forms times q6 over q6Columns (/wide) and over every fragment
// of q6Parts (/coded).
func benchQ6Forms(b *testing.B, q6 func(shipdate, discount, quantity, extprice *BAT) any) {
	shipdate, discount, quantity, extprice := q6Columns()
	b.Run("wide", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if q6(shipdate, discount, quantity, extprice) == nil {
				b.Fatal("no sum")
			}
		}
	})
	ds, fs, qs, ps := q6Parts()
	b.Run("coded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range ds {
				if q6(ds[j], fs[j], qs[j], ps[j]) == nil {
					b.Fatal("no sum")
				}
			}
		}
	})
}

// BenchmarkBATDecimalQ6 is the served Q6's float work over 1M rows in
// 64K-row fragments with dense heads, on the generator's wide float
// columns and on their decimal codes (l_discount 1 byte, l_extendedprice
// 2, both at 10^-2): the discount candidate test behind the date select,
// the extendedprice gather at Q6's candidates, and the sum of what it
// gathered.
func BenchmarkBATDecimalQ6(b *testing.B) {
	const frag = 64 << 10
	shipdate, discount, quantity, extprice := q6Columns()
	type part struct{ dateCand, disc, cand, price, fetched *BAT }
	var sums []any
	for _, form := range []string{"wide", "coded"} {
		var parts []part
		for at := 0; at < benchRows; at += frag {
			p := part{disc: discount.Slice(at, at+frag), price: extprice.Slice(at, at+frag)}
			if form == "coded" {
				p.disc, p.price = Narrow(p.disc), Narrow(p.price)
				if p.disc.Tail().Width() != 1 || p.price.Tail().Width() != 2 {
					b.Fatalf("coded widths %d and %d, want 1 and 2", p.disc.Tail().Width(), p.price.Tail().Width())
				}
			}
			p.dateCand = shipdate.Slice(at, at+frag).USelect(q6DateLo, q6DateHi)
			p.cand = quantity.Slice(at, at+frag).USelectCand(p.disc.USelectCand(p.dateCand, q6DiscLo, q6DiscHi), nil, q6QtyHi)
			p.fetched = p.cand.Join(p.price)
			parts = append(parts, p)
		}
		sums = append(sums, parts[0].fetched.Sum())
		b.Run("candidates/"+form, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range parts {
					benchSink = p.disc.USelectCand(p.dateCand, q6DiscLo, q6DiscHi)
				}
			}
		})
		b.Run("gather/"+form, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range parts {
					benchSink = p.cand.Join(p.price)
				}
			}
		})
		b.Run("sum/"+form, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range parts {
					benchSink = p.fetched.Sum()
				}
			}
		})
	}
	if !sameValue(sums[0], sums[1]) {
		b.Fatalf("a fragment sums to %v wide and %v coded", sums[0], sums[1])
	}
}

// BenchmarkBATFetchCand is wide_result's per-fragment fetch: 16 × 64K
// rows with dense heads, each fragment's sorted candidate list keeping
// ~48 % of its rows (l_quantity < 25), gathered from value columns
// stored 8, 4, 2 and 1 bytes wide and as 2-byte decimal codes.
func BenchmarkBATFetchCand(b *testing.B) {
	const frag = 64 << 10
	rng := rand.New(rand.NewSource(41))
	qty, vals, prices := make([]int64, benchRows), make([]int64, benchRows), make([]float64, benchRows)
	for i := range qty {
		qty[i] = 1 + int64(rng.Intn(50))
		vals[i] = int64(rng.Intn(200))
		prices[i] = float64(90000+rng.Intn(10000)) / 100
	}
	quantity := MakeInts("q", qty)
	var cands []*BAT
	for at := 0; at < benchRows; at += frag {
		cands = append(cands, quantity.Slice(at, at+frag).USelect(nil, &Bound{Value: int64(25)}))
	}
	for _, form := range []string{"8", "4", "2", "1", "decimal"} {
		var frags []*BAT
		for at := 0; at < benchRows; at += frag {
			var f *BAT
			if form == "decimal" {
				f = Narrow(MakeFloats("p", prices[at:at+frag]).MarkH(Oid(at)))
			} else {
				var width int
				fmt.Sscan(form, &width)
				f = New("v", DenseColumn(Oid(at), frag), widthColumn(vals[at:at+frag], width))
			}
			frags = append(frags, f)
		}
		b.Run(form, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k, f := range frags {
					benchSink = cands[k].Join(f)
				}
			}
		})
	}
}

// BenchmarkBATConcatTail is wide_result's tail exit: three columns of
// 16 × 64K-row parts under dense heads at their running offsets, each
// part narrowed on its own — ascending keys in 4-byte codes above a
// reference of their own, ints of 2 bytes, and hundredths in 2-byte
// decimal codes — merged in one ConcatAll. "codes" merges the parts as
// they are; "widened" merges the same parts widened beforehand, the 8
// bytes a value the merge wrote when it decoded.
func BenchmarkBATConcatTail(b *testing.B) {
	const frag = 64 << 10
	rng := rand.New(rand.NewSource(44))
	keys, supp, prices := make([]int64, benchRows), make([]int64, benchRows), make([]float64, benchRows)
	key := int64(1)
	for i := range keys {
		key += 1 + int64(rng.Intn(7))
		keys[i] = key
		supp[i] = 1 + int64(rng.Intn(10000))
		prices[i] = float64(90000+rng.Intn(10000)) / 100
	}
	lists := make([][]*BAT, 3)
	for at := 0; at < benchRows; at += frag {
		for c, t := range []*Column{IntColumn(keys[at : at+frag]), IntColumn(supp[at : at+frag]), FloatColumn(prices[at : at+frag])} {
			lists[c] = append(lists[c], Narrow(New("v", DenseColumn(Oid(at), frag), t)))
		}
	}
	widened := make([][]*BAT, len(lists))
	for c, parts := range lists {
		if w := parts[0].Tail().Width(); w != []int{4, 2, 2}[c] {
			b.Fatalf("column %d narrows to %d bytes", c, w)
		}
		for _, p := range parts {
			widened[c] = append(widened[c], Widen(p))
		}
	}
	for _, form := range []struct {
		name  string
		lists [][]*BAT
	}{{"codes", lists}, {"widened", widened}} {
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = ConcatAll(form.lists, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRows), "ns/row")
		})
	}
}

// BenchmarkBATFetchExit1M is wide_result's region in the kernel: over
// 16 × 64K-row fragments a range on a 1-byte quantity keeps 48 % of the
// rows, and three columns — ascending keys in 4-byte codes, ints and
// hundredths in 2-byte codes — are fetched at it and merged by their
// tails. /list is the path before fetch exits were deferred: per
// fragment a USelect and three Joins, then one ConcatAll. /mask is a
// SelectMask per fragment and one FetchAll; /mask-arena draws the
// merged columns from an arena it releases every iteration, as a
// server does once the result frame is written (unpoisoned, as outside
// a test binary); /mask-go is /mask with the compress kernels off,
// gatherKept's loop gathering every word.
func BenchmarkBATFetchExit1M(b *testing.B) {
	const frag = 64 << 10
	rng := rand.New(rand.NewSource(51))
	qty, keys, supp, prices := make([]int64, benchRows), make([]int64, benchRows), make([]int64, benchRows), make([]float64, benchRows)
	key := int64(1)
	for i := range keys {
		qty[i] = 1 + int64(rng.Intn(50))
		key += 1 + int64(rng.Intn(7))
		keys[i] = key
		supp[i] = 1 + int64(rng.Intn(10000))
		prices[i] = float64(90000+rng.Intn(10000)) / 100
	}
	var sel []*BAT
	cols := make([][]*BAT, 3)
	for at := 0; at < benchRows; at += frag {
		h := DenseColumn(Oid(at), frag)
		sel = append(sel, Narrow(New("q", h, IntColumn(qty[at:at+frag]))))
		for c, t := range []*Column{IntColumn(keys[at : at+frag]), IntColumn(supp[at : at+frag]), FloatColumn(prices[at : at+frag])} {
			cols[c] = append(cols[c], Narrow(New("v", h, t)))
		}
	}
	hi := &Bound{Value: int64(25)}
	tails := []bool{true, true, true}
	b.Run("list", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lists := make([][]*BAT, len(cols))
			off := make([]Oid, len(cols))
			for k, s := range sel {
				c := s.USelect(nil, hi)
				for l := range cols {
					f := c.Join(cols[l][k])
					lists[l] = append(lists[l], f.MarkH(off[l]))
					off[l] += Oid(f.Len())
				}
			}
			benchSink = ConcatAll(lists, nil)
		}
	})
	mask := func(a *Arena) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lists := make([][]Fetch, len(cols))
				for k, s := range sel {
					m := SelectMask([]Term{{B: s, Hi: hi}}, a)
					for l := range cols {
						lists[l] = append(lists[l], Fetch{Cand: m, Col: cols[l][k]})
					}
				}
				benchSink = FetchAll(lists, tails, a)
				a.Release()
			}
		}
	}
	b.Run("mask", mask(nil))
	poisoned, vbmi2 := poisonReleased, haveVBMI2
	defer func() { poisonReleased, haveVBMI2 = poisoned, vbmi2 }()
	poisonReleased = false
	b.Run("mask-arena", mask(new(Arena)))
	haveVBMI2 = false
	b.Run("mask-go", mask(nil))
}

// widthColumn stores vals in the given physical width (8: wide), which
// must hold their range.
func widthColumn(vals []int64, width int) *Column {
	ref, hi := vals[0], vals[0]
	for _, v := range vals {
		ref, hi = min(ref, v), max(hi, v)
	}
	c, top := IntColumn(vals), uint64(hi-ref)
	switch width {
	case 1:
		return &Column{kind: KInt, narrow: encode[uint8](c, ref, top, 1)}
	case 2:
		return &Column{kind: KInt, narrow: encode[uint16](c, ref, top, 1)}
	case 4:
		return &Column{kind: KInt, narrow: encode[uint32](c, ref, top, 1)}
	}
	return c
}

// BenchmarkBATRangeScanWidth is the served Q6's date scan — a half-open
// range keeping ~14 % of the rows, as l_shipdate's [1994-01-01,
// 1995-01-01) does — over 1M rows in 64K-row fragments with dense
// heads, the same values stored 8, 4, 2 and 1 bytes wide. Beside
// BenchmarkBATStreamSum it answers whether the scan is bound by the
// bytes it reads or by its own loop: compare ns/op across the widths,
// and with the stream. The plain cases draw 256 consecutive dates, so no
// code reaches its lane's top bit; the tpch ones draw yyyymmdd dates over
// 1992–1998 as tpch.GenDB does, whose 2-byte codes reach 61,130, and
// select [19940101, 19950101). The go/ cases run the same with the
// AVX2 and AVX-512 kernels off: 1- and 2-byte codes fill the bitmap by
// the word test (rejectWords).
func BenchmarkBATRangeScanWidth(b *testing.B) {
	avx2, vbmi2 := haveAVX2, haveVBMI2
	defer func() { haveAVX2, haveVBMI2 = avx2, vbmi2 }()
	const frag = 64 << 10
	rng := rand.New(rand.NewSource(13))
	vals, dates := make([]int64, benchRows), make([]int64, benchRows)
	for i := range vals {
		vals[i] = 19920101 + int64(rng.Intn(256))
		dates[i] = int64((1992+rng.Intn(7))*10000 + (1+rng.Intn(12))*100 + 1 + rng.Intn(28))
	}
	for _, c := range []struct {
		name   string
		vals   []int64
		widths []int
		lo, hi *Bound
	}{
		{"", vals, []int{8, 4, 2, 1}, &Bound{Value: int64(19920101 + 73), Inclusive: true}, &Bound{Value: int64(19920101 + 110)}},
		{"tpch/", dates, []int{8, 4, 2}, q6DateLo, q6DateHi},
	} {
		for _, width := range c.widths {
			var frags []*BAT
			for at := 0; at < benchRows; at += frag {
				frags = append(frags, New("d", DenseColumn(Oid(at), frag), widthColumn(c.vals[at:at+frag], width)))
			}
			for _, kernels := range []string{"", "go/"} {
				haveAVX2, haveVBMI2 = avx2 && kernels == "", vbmi2 && kernels == ""
				b.Run(kernels+c.name+fmt.Sprint(width), func(b *testing.B) {
					b.SetBytes(int64(benchRows * width))
					for i := 0; i < b.N; i++ {
						for _, f := range frags {
							benchSink = f.USelect(c.lo, c.hi)
						}
					}
				})
			}
		}
	}
}

// BenchmarkBATStreamSum sums 8 MB of int64s: one core's streaming read
// rate, the floor a scan of the same bytes can approach.
func BenchmarkBATStreamSum(b *testing.B) {
	bb := benchIntBAT(benchRows, 1000)
	b.SetBytes(8 * benchRows)
	for i := 0; i < b.N; i++ {
		benchSink = bb.Sum()
	}
}

// benchSink keeps the compiler from dropping a benchmarked call.
var benchSink any

// BenchmarkBATJoinRepFetch is Q1's representative fetch (X13 :=
// algebra.join(X12, X7) at point_storm's size): 6 group representatives'
// OIDs probing a sorted 3,000-OID candidate head.
func BenchmarkBATJoinRepFetch(b *testing.B) {
	rng := rand.New(rand.NewSource(46))
	cand := make([]Oid, 3000)
	flags := make([]string, len(cand))
	for i := range cand {
		cand[i] = Oid(2*i + rng.Intn(2))
		flags[i] = []string{"A", "N", "R"}[rng.Intn(3)]
	}
	r := New("x7", OidColumn(cand), StrColumn(flags))
	r.Head().SetSorted(true)
	reps := MakeOids("x12", []Oid{cand[0], cand[1], cand[2], cand[4], cand[9], cand[23]})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = reps.Join(r)
	}
}

// BenchmarkBATJoinSmallProbe is Q3ish's X22: 41 order keys, stored
// narrow as the ring stores o_orderkey, probing 3,000 unsorted 2-byte
// l_orderkey codes.
func BenchmarkBATJoinSmallProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	keys := make([]int64, 3000)
	for i := range keys {
		keys[i] = 1 + int64(rng.Intn(6000))
	}
	build := Narrow(MakeInts("l_orderkey", keys)).Reverse()
	probe := make([]int64, 41)
	for i := range probe {
		probe[i] = keys[rng.Intn(len(keys))]
	}
	p := Narrow(MakeInts("o_orderkey", probe))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = p.Join(build)
	}
}

// BenchmarkBATGroupDeriveFlags is Q1's group.derive: 2,850 rows grouped
// by 3 return flags, refined by 2 line statuses.
func BenchmarkBATGroupDeriveFlags(b *testing.B) {
	rng := rand.New(rand.NewSource(48))
	rf, ls := make([]string, 2850), make([]string, 2850)
	for i := range rf {
		rf[i] = []string{"A", "N", "R"}[rng.Intn(3)]
		ls[i] = []string{"F", "O"}[rng.Intn(2)]
	}
	groups, _ := MakeStrs("rf", rf).GroupIDsPos()
	status := MakeStrs("ls", ls)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink, _ = GroupDerive(groups, status)
	}
}

// flagColumns are Q1's two group keys at point_storm's size: 2,850 rows
// of 3 return flags and 2 line statuses, stored as the ring stores them.
func flagColumns() (rf, ls *BAT) {
	rng := rand.New(rand.NewSource(49))
	f, s := make([]string, 2850), make([]string, 2850)
	for i := range f {
		f[i] = []string{"A", "N", "R"}[rng.Intn(3)]
		s[i] = []string{"F", "O"}[rng.Intn(2)]
	}
	return Narrow(MakeStrs("rf", f)), Narrow(MakeStrs("ls", s))
}

// BenchmarkBATGroupFlagsDict is Q1's grouping whole: group.newpos over
// the return flags, then group.derive by the line statuses.
func BenchmarkBATGroupFlagsDict(b *testing.B) {
	rf, ls := flagColumns()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		groups, _ := rf.GroupIDsPos()
		benchSink, _ = GroupDerive(groups, ls)
	}
}

// BenchmarkBATNarrowStrs is the install pass over a 64K-row fragment of
// a string column: what each installed version costs the ring's set-up.
// flags3 is a 3-value flag column, coded at 1 byte. The others price
// the pass at many distinct values, every one of which collides in the
// first-byte table and goes to its map: below, 57,343 values, the most
// that still code (at 2 bytes, n·2 + 16·d < 16·n); past, 57,345 values,
// and distinct, 65,536, both abandoned when d reaches 57,344 and left
// plain.
func BenchmarkBATNarrowStrs(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(50))
	column := func(d int) *BAT {
		v := make([]string, n)
		for i, k := range rng.Perm(n) {
			v[i] = fmt.Sprintf("customer comment %06d", k%d)
		}
		return MakeStrs("s", v)
	}
	flags := make([]string, n)
	for i := range flags {
		flags[i] = []string{"A", "N", "R"}[rng.Intn(3)]
	}
	for _, c := range []struct {
		name string
		frag *BAT
	}{
		{"flags3", MakeStrs("l_returnflag", flags)},
		{"below", column(n*14/16 - 1)},
		{"past", column(n*14/16 + 1)},
		{"distinct", column(n)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = Narrow(c.frag)
			}
		})
	}
}
