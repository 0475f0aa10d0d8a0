package live

import (
	"fmt"
	"testing"

	"repro/internal/bat"
	"repro/internal/minisql"
)

// BenchmarkRingHop measures the end-to-end cost of one fragment hop:
// envelope encode + transport (one gather write, no copy) + envelope
// decode + zero-copy BAT decode, via Fetch from the non-owning node of
// a two-node ring. This is the number the codec work is about — the
// per-hop serialization tax on ring bandwidth.
func BenchmarkRingHop(b *testing.B) {
	for _, rows := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			vals := make([]int64, rows)
			for i := range vals {
				vals[i] = int64(i)
			}
			frag := bat.MakeInts("big.col", vals)
			cols := map[string]*bat.BAT{"big.col": frag}
			schema := minisql.MapSchema{"big": {"col"}}
			r, err := NewRing(2, cols, schema, DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			// big.col is owned by node 0; fetch from node 1 so every
			// access crosses the wire at least once.
			b.SetBytes(int64(bat.MarshalSize(frag)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := r.Node(1).Fetch("big.col")
				if err != nil {
					b.Fatal(err)
				}
				if got.Len() != rows {
					b.Fatalf("fetched %d rows, want %d", got.Len(), rows)
				}
			}
		})
	}
}
