package mal

import (
	"testing"
	"time"
)

// blockingDC is a DCRuntime whose Pin blocks until the cancel channel
// closes, mirroring a live-ring pin that will never be delivered.
type blockingDC struct {
	cancel  <-chan struct{}
	pinning chan struct{} // closed when Pin is entered
}

func (d *blockingDC) Request(schema, table, column string) (Value, error) {
	return table + "." + column, nil
}

func (d *blockingDC) Pin(handle Value) (Value, error) {
	close(d.pinning)
	<-d.cancel
	return nil, ErrCancelled
}

func (d *blockingDC) Unpin(handle Value) error { return nil }

func cancelPlan(t *testing.T) *Plan {
	t.Helper()
	b := NewBuilder("blocked")
	h := b.Emit("datacyclotron", "request", L("sys"), L("t"), L("c"))
	p := b.Emit("datacyclotron", "pin", V(h))
	b.SetResult(p)
	return b.MustBuild()
}

// TestCancelUnblocksPin runs a plan whose pin never delivers and checks
// that closing Context.Cancel makes Run return instead of stranding the
// interpreter (sequential and parallel runners both).
func TestCancelUnblocksPin(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cancel := make(chan struct{})
		dc := &blockingDC{cancel: cancel, pinning: make(chan struct{})}
		ctx := &Context{Registry: NewRegistry(), DC: dc, Workers: workers, Cancel: cancel}
		done := make(chan error, 1)
		go func() {
			_, err := Run(ctx, cancelPlan(t))
			done <- err
		}()
		select {
		case <-dc.pinning:
		case <-time.After(2 * time.Second):
			t.Fatalf("workers=%d: pin never entered", workers)
		}
		close(cancel)
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("workers=%d: cancelled run returned nil error", workers)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("workers=%d: cancelled run did not return", workers)
		}
	}
}

// TestCancelBetweenInstructions checks a pre-cancelled context stops the
// run before any instruction executes.
func TestCancelBetweenInstructions(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	ran := false
	reg := NewRegistry()
	reg.Register("test", "touch", func(ctx *Context, c *Call) error {
		ran = true
		return c.Return(int64(1))
	})
	b := NewBuilder("precancelled")
	v := b.Emit("test", "touch")
	b.SetResult(v)
	ctx := &Context{Registry: reg, Cancel: cancel}
	if _, err := Run(ctx, b.MustBuild()); err != ErrCancelled {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if ran {
		t.Fatal("instruction executed despite cancelled context")
	}
}
