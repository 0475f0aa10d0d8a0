package wirebuf

import "testing"

func TestGetPutReuse(t *testing.T) {
	b := Get()
	if len(b) != 0 {
		t.Fatalf("Get returned %d-length buffer", len(b))
	}
	b = append(b, make([]byte, 4096)...)
	// Under the race detector sync.Pool deliberately drops a fraction
	// of Puts on the floor, so a single Put/Get pair is flaky there;
	// consecutive drops decay geometrically, so a few attempts make
	// the reuse deterministic in practice.
	reused := false
	for attempt := 0; attempt < 8 && !reused; attempt++ {
		Put(b)
		got := Get()
		if len(got) != 0 {
			t.Fatalf("Get returned %d-length buffer", len(got))
		}
		reused = cap(got) >= 4096
		b = got[:0]
		if !reused {
			b = append(b, make([]byte, 4096)...)
		}
	}
	if !reused {
		t.Fatal("recycled buffer never handed back by Get")
	}
}

func TestPutDropsEmptyAndGiant(t *testing.T) {
	Put(nil)
	Put(make([]byte, 0))
	Put(make([]byte, maxPooled+1))
	// Whatever the pool hands out now, the giant buffer is not among it.
	for i := 0; i < 8; i++ {
		if got := Get(); cap(got) > maxPooled {
			t.Fatalf("Get returned a %d-byte buffer; Put kept a giant one", cap(got))
		}
	}
}
