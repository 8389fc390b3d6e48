package eval

// The sharded flight's contract: shard count is invisible in every
// observable way. The context-error eviction regressions from ctx_test.go
// are re-run here across shard counts {1, 4, 16}, and a determinism test
// pins that values, error caching, hit/miss counts, len and reset behave
// identically no matter how the keys stripe.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var flightShardCounts = []int{1, 4, 16}

// TestFlightShardWaiterAbandons ports TestFlightGetCtxWaiterAbandons across
// shard counts: an abandoning waiter never evicts the owner's computation.
func TestFlightShardWaiterAbandons(t *testing.T) {
	for _, n := range flightShardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			f := newFlight[int, int](n)
			block := make(chan struct{})
			computing := make(chan struct{})
			go func() {
				f.get(1, func() (int, error) {
					close(computing)
					<-block
					return 42, nil
				}) //nolint:errcheck
			}()
			<-computing

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			if _, err := f.GetCtx(ctx, 1, func() (int, error) { return 0, nil }); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("waiter err = %v, want DeadlineExceeded", err)
			}

			close(block)
			v, err := f.GetCtx(context.Background(), 1, func() (int, error) {
				t.Error("recompute after the owner cached the value")
				return 0, nil
			})
			if err != nil || v != 42 {
				t.Fatalf("cached get = %d, %v; want 42, nil", v, err)
			}
		})
	}
}

// TestFlightShardOwnerExpires ports TestFlightGetCtxOwnerExpires across
// shard counts: an owner's context error is evicted, not cached, whichever
// shard the key lands in.
func TestFlightShardOwnerExpires(t *testing.T) {
	for _, n := range flightShardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			f := newFlight[int, int](n)
			// Spread keys so at least one lands in a non-zero shard when
			// striping is real.
			for k := 0; k < 8; k++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				_, err := f.GetCtx(ctx, k, func() (int, error) {
					<-ctx.Done()
					return 0, fmt.Errorf("build: %w", ctx.Err())
				})
				cancel()
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("key %d: owner err = %v, want DeadlineExceeded", k, err)
				}
			}
			if got := f.Len(); got != 0 {
				t.Fatalf("cache holds %d entries after owner-expired computations", got)
			}
			for k := 0; k < 8; k++ {
				v, err := f.GetCtx(context.Background(), k, func() (int, error) { return 100 + k, nil })
				if err != nil || v != 100+k {
					t.Fatalf("key %d: recompute = %d, %v; want %d, nil", k, v, err, 100+k)
				}
			}
		})
	}
}

// TestFlightShardCountInvisible runs the same deterministic workload against
// every shard count and demands identical observables: every value, every
// cached error, the hit/miss totals, len before and after reset.
func TestFlightShardCountInvisible(t *testing.T) {
	type observed struct {
		vals       map[int]int
		errs       map[int]string
		hits       int64
		misses     int64
		size       int
		afterReset int
	}
	boom := errors.New("boom")
	drive := func(f *Flight[int, int]) observed {
		o := observed{vals: map[int]int{}, errs: map[int]string{}}
		// 32 keys, even ones succeed, odd ones fail; each looked up 3 times
		// (1 miss + 2 hits per key, cached errors included).
		for pass := 0; pass < 3; pass++ {
			for k := 0; k < 32; k++ {
				v, err := f.get(k, func() (int, error) {
					if k%2 == 1 {
						return 0, fmt.Errorf("key %d: %w", k, boom)
					}
					return k * k, nil
				})
				if err != nil {
					o.errs[k] = err.Error()
				} else {
					o.vals[k] = v
				}
			}
		}
		o.hits, o.misses = f.hits.Load(), f.misses.Load()
		o.size = f.Len()
		f.Reset()
		o.afterReset = f.Len()
		return o
	}

	var base observed
	for i, n := range flightShardCounts {
		got := drive(newFlight[int, int](n))
		if i == 0 {
			base = got
			// Sanity on the baseline itself before comparing against it.
			if base.misses != 32 || base.hits != 64 || base.size != 32 || base.afterReset != 0 {
				t.Fatalf("baseline observables off: %+v", base)
			}
			continue
		}
		if got.hits != base.hits || got.misses != base.misses ||
			got.size != base.size || got.afterReset != base.afterReset {
			t.Errorf("shards=%d: counters (hits=%d misses=%d size=%d reset=%d) != baseline (%d %d %d %d)",
				n, got.hits, got.misses, got.size, got.afterReset,
				base.hits, base.misses, base.size, base.afterReset)
		}
		for k, v := range base.vals {
			if got.vals[k] != v {
				t.Errorf("shards=%d: key %d = %d, baseline %d", n, k, got.vals[k], v)
			}
		}
		for k, e := range base.errs {
			if got.errs[k] != e {
				t.Errorf("shards=%d: key %d error %q, baseline %q", n, k, got.errs[k], e)
			}
		}
	}

	// The zero value (implicit default shard count) matches too.
	var zf Flight[int, int]
	if got := drive(&zf); got.hits != base.hits || got.misses != base.misses || got.size != base.size {
		t.Errorf("zero-value flight observables diverge: %+v != %+v", got, base)
	}
}

// TestFlightShardConcurrentSingleflight: under 64 goroutines hammering 8
// keys, each key's function runs exactly once per shard configuration.
func TestFlightShardConcurrentSingleflight(t *testing.T) {
	for _, n := range flightShardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			f := newFlight[int, int](n)
			var computes atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < 64; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						k := (g + i) % 8
						v, err := f.get(k, func() (int, error) {
							computes.Add(1)
							return k * 10, nil
						})
						if err != nil || v != k*10 {
							t.Errorf("key %d = %d, %v; want %d, nil", k, v, err, k*10)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if got := computes.Load(); got != 8 {
				t.Errorf("computed %d times for 8 keys; singleflight broken", got)
			}
			if got := f.Len(); got != 8 {
				t.Errorf("len = %d, want 8", got)
			}
		})
	}
}

// TestFlightResetDuringFills: Reset may run while fills are in flight (the
// server's capped source cache resets that way). Every caller still gets
// its own key's value, and once the resets stop the cache refills.
func TestFlightResetDuringFills(t *testing.T) {
	var f Flight[int, int]
	var wg sync.WaitGroup
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				f.Reset()
			}
		}
	}()
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 8
				v, err := f.GetCtx(context.Background(), k, func() (int, error) { return k * 10, nil })
				if err != nil || v != k*10 {
					t.Errorf("key %d = %d, %v; want %d, nil", k, v, err, k*10)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-stopped
	if v, err := f.GetCtx(context.Background(), 3, func() (int, error) { return 30, nil }); err != nil || v != 30 || f.Len() == 0 {
		t.Fatalf("after the resets: key 3 = %d, %v; len %d", v, err, f.Len())
	}
}
