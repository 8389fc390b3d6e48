package eval

// Context threading through the Runner: canceled contexts fail fast, a
// waiter abandoning a shared in-flight computation does not poison the
// cache for everyone else.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sentinel/internal/machine"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

func TestMeasureCtxCanceledBeforeStart(t *testing.T) {
	r := NewRunner(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, _ := workload.ByName("cmp")
	_, err := r.MeasureCtx(ctx, b, machine.Base(8, machine.Sentinel), superblock.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Nothing may have been computed or cached on behalf of a dead request.
	for name, cs := range r.CacheStats() {
		if cs.Size != 0 {
			t.Errorf("cache %s has %d entries after a canceled request", name, cs.Size)
		}
	}
}

func TestRunAllCtxCanceled(t *testing.T) {
	r := NewRunner(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := r.RunAllCtx(ctx, []machine.Model{machine.Sentinel}, []int{2, 4, 8}, superblock.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("canceled RunAllCtx took %s; must fail fast", d)
	}
}

func TestParallelForCtxCancelMidway(t *testing.T) {
	r := NewRunner(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	err := r.parallelForCtx(ctx, 1000, func(i int) error {
		once.Do(cancel) // first index to run cancels the rest
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFlightGetCtxWaiterAbandons: a waiter whose context expires unblocks
// immediately, while the in-flight computation completes and is cached for
// subsequent callers.
func TestFlightGetCtxWaiterAbandons(t *testing.T) {
	var f Flight[int, int]
	block := make(chan struct{})
	computing := make(chan struct{})

	go func() {
		f.get(1, func() (int, error) { // owner: computes, slowly
			close(computing)
			<-block
			return 42, nil
		}) //nolint:errcheck
	}()
	<-computing

	// Waiter with a deadline: must give up without waiting for the owner.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := f.GetCtx(ctx, 1, func() (int, error) { return 0, nil }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want DeadlineExceeded", err)
	}

	// The owner finishes; the value is cached and served to new callers.
	close(block)
	v, err := f.GetCtx(context.Background(), 1, func() (int, error) {
		t.Error("recompute after the owner cached the value")
		return 0, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("cached get = %d, %v; want 42, nil", v, err)
	}
}

// TestFlightGetCtxOwnerExpires: the poisoning path. When the singleflight
// OWNER's own deadline expires mid-computation, its context error must not
// be cached — otherwise every later request for that key is served the dead
// request's timeout until process restart. Waiters already blocked on the
// owner still see the error once; the next caller recomputes.
func TestFlightGetCtxOwnerExpires(t *testing.T) {
	var f Flight[int, int]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := f.GetCtx(ctx, 1, func() (int, error) {
		<-ctx.Done() // the owner's pipeline stage observes its own expiry
		return 0, fmt.Errorf("build: %w", ctx.Err())
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("owner err = %v, want DeadlineExceeded", err)
	}
	if n := f.Len(); n != 0 {
		t.Fatalf("cache holds %d entries after an owner-expired computation; the context error is poisoned in", n)
	}
	// A fresh caller recomputes and caches the real value.
	v, err := f.GetCtx(context.Background(), 1, func() (int, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("recompute = %d, %v; want 42, nil", v, err)
	}
	v, err = f.GetCtx(context.Background(), 1, func() (int, error) {
		t.Error("recompute after a successful fill")
		return 0, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("cached get = %d, %v; want 42, nil", v, err)
	}
}

// expireAfter is a context that starts reporting DeadlineExceeded from its
// nth Err() call on — a deterministic stand-in for a deadline that fires
// between two pipeline stages, which no real timer can place reliably.
type expireAfter struct {
	context.Context
	calls atomic.Int32
	after int32
}

func (c *expireAfter) Err() error {
	if c.calls.Add(1) > c.after {
		return context.DeadlineExceeded
	}
	return nil
}

// TestMeasureCtxOwnerExpiresDoesNotPoison drives the poisoning path end to
// end through the Runner: a Measure that passes the cell cache's entry
// check alive but expires inside the pipeline (here: at the build stage)
// must not condemn every later Measure of that cell to its timeout.
func TestMeasureCtxOwnerExpiresDoesNotPoison(t *testing.T) {
	r := NewRunner(2)
	b, _ := workload.ByName("cmp")
	md := machine.Base(8, machine.Sentinel)
	// Call 1 is the cells cache's liveness check (survives), call 2 the
	// builds cache's (expires): the owner dies mid-pipeline, after its cell
	// entry exists.
	ctx := &expireAfter{Context: context.Background(), after: 1}
	if _, err := r.MeasureCtx(ctx, b, md, superblock.Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-pipeline MeasureCtx err = %v, want DeadlineExceeded", err)
	}
	for name, cs := range r.CacheStats() {
		if cs.Size != 0 {
			t.Errorf("cache %s holds %d entries after an owner-expired measure (context error poisoned in)", name, cs.Size)
		}
	}
	cell, err := r.MeasureCtx(context.Background(), b, md, superblock.Options{})
	if err != nil {
		t.Fatalf("Measure after an expired owner: %v (cache poisoned)", err)
	}
	if cell.Cycles == 0 {
		t.Fatal("Measure after an expired owner returned an empty cell")
	}
}

// TestCtxWrappersMatch: the context-free entry points are thin wrappers —
// same artifacts, same results, shared caches.
func TestCtxWrappersMatch(t *testing.T) {
	r := NewRunner(2)
	b, _ := workload.ByName("cmp")
	md := machine.Base(4, machine.Sentinel)
	viaCtx, err := r.MeasureCtx(context.Background(), b, md, superblock.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := r.Measure(b, md, superblock.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if viaCtx.Cycles != plain.Cycles || viaCtx.Instrs != plain.Instrs {
		t.Errorf("MeasureCtx %d/%d != Measure %d/%d",
			viaCtx.Cycles, viaCtx.Instrs, plain.Cycles, plain.Instrs)
	}
	if cs := r.CacheStats()["cells"]; cs.Size != 1 || cs.Hits == 0 {
		t.Errorf("wrappers must share one cell cache: %+v", cs)
	}
}
