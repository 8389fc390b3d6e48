package eval

// Flight is a singleflight-style memo: the first caller of a key computes
// the value while later callers block on it; afterwards the value is served
// from the cache. Errors are cached alongside values — within one process
// the inputs are deterministic, so recomputing a failed artifact cannot
// succeed. Hit/miss counts are tracked so the Runner's metrics can expose
// cache effectiveness and growth.
//
// The map is striped over a power-of-two number of shards, each behind its
// own mutex, with the shard picked by a cheap hash of the key. A warm
// lookup therefore contends only with other keys that happen to share its
// shard, never with the whole request population — on the serving hot path
// every /v1 request takes four of these lookups (builds, forms, scheds,
// cells), and a single mutex in front of them serialized the entire warm
// path. Shard choice is invisible in every observable way: values, error
// caching, context-error eviction, reset, len and hit/miss counts are
// byte-for-byte what the single-map implementation produced (the
// determinism tests in flight_test.go pin this across shard counts).

import (
	"context"
	"errors"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"sentinel/internal/obs"
)

// flightSeed is the process-wide seed for shard selection. Sharing one seed
// across every flight keeps the hash cheap to compute and the shard choice
// stable within a process; it carries no security weight (keys are not
// attacker-controlled map-flood vectors — a full shard is just a slower
// shard).
var flightSeed = maphash.MakeSeed()

// defaultFlightShards is the shard count a zero-value flight initializes
// itself with: enough stripes that 16 admission slots' worth of concurrent
// requests rarely collide, small enough that reset/len stay trivial.
const defaultFlightShards = 16

type flightShard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Flight's zero value is ready to use (shards materialize on first access
// with defaultFlightShards); newFlight pins an explicit shard count, which
// only tests exercising the striping itself need. The Runner keeps one per
// artifact cache; the server keeps one for inline-source compiles.
type Flight[K comparable, V any] struct {
	once         sync.Once
	shards       []flightShard[K, V]
	nshards      int // desired shard count; 0 selects defaultFlightShards
	hits, misses atomic.Int64
	// Arg labels this flight's wait/own spans in request records (which
	// artifact cache a request blocked on). Set once at construction,
	// before any get; ArgNone on flights nobody instruments.
	Arg obs.Arg
}

func newFlight[K comparable, V any](nshards int) *Flight[K, V] {
	f := &Flight[K, V]{nshards: nshards}
	f.once.Do(f.init)
	return f
}

func (f *Flight[K, V]) init() {
	n := f.nshards
	if n <= 0 {
		n = defaultFlightShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	f.shards = make([]flightShard[K, V], p)
}

func (f *Flight[K, V]) shard(k K) *flightShard[K, V] {
	f.once.Do(f.init)
	h := maphash.Comparable(flightSeed, k)
	return &f.shards[h&uint64(len(f.shards)-1)]
}

func (f *Flight[K, V]) get(k K, fn func() (V, error)) (V, error) {
	s := f.shard(k)
	s.mu.Lock()
	if s.m == nil {
		s.m = map[K]*flightCall[V]{}
	}
	if c, ok := s.m[k]; ok {
		s.mu.Unlock()
		f.hits.Add(1)
		<-c.done
		return c.val, c.err
	}
	c := &flightCall[V]{done: make(chan struct{})}
	s.m[k] = c
	s.mu.Unlock()
	f.misses.Add(1)
	c.val, c.err = fn()
	close(c.done)
	return c.val, c.err
}

// GetCtx is get with cancellation: a caller whose context expires while the
// value is computed by another goroutine unblocks immediately with the
// context's error, and an already-expired context never starts a
// computation. Real errors are cached like values (deterministic inputs
// cannot recompute differently), but a context error is the owner's deadline
// talking, not a property of the artifact: the entry is dropped before
// waiters are released, so the next caller recomputes instead of being
// served a dead request's timeout forever.
func (f *Flight[K, V]) GetCtx(ctx context.Context, k K, fn func() (V, error)) (V, error) {
	var zero V
	s := f.shard(k)
	s.mu.Lock()
	if s.m == nil {
		s.m = map[K]*flightCall[V]{}
	}
	if c, ok := s.m[k]; ok {
		s.mu.Unlock()
		f.hits.Add(1)
		// Completed entries — the warm path — serve without touching the
		// request record; only a genuine wait on another goroutine's
		// in-flight computation earns a span.
		select {
		case <-c.done:
			return c.val, c.err
		default:
		}
		rec := obs.RecordFrom(ctx)
		rec.Start(obs.StageSFWait, f.Arg)
		select {
		case <-c.done:
			rec.End()
			return c.val, c.err
		case <-ctx.Done():
			rec.End()
			return zero, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		return zero, err
	}
	c := &flightCall[V]{done: make(chan struct{})}
	s.m[k] = c
	s.mu.Unlock()
	f.misses.Add(1)
	rec := obs.RecordFrom(ctx)
	rec.Start(obs.StageSFOwn, f.Arg)
	c.val, c.err = fn()
	rec.End()
	if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
		s.mu.Lock()
		if s.m[k] == c {
			delete(s.m, k)
		}
		s.mu.Unlock()
	}
	close(c.done)
	return c.val, c.err
}

// Len returns the number of cached entries (including in-flight ones).
func (f *Flight[K, V]) Len() int {
	f.once.Do(f.init)
	n := 0
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Reset drops every cached entry. It may run during concurrent fills:
// callers already waiting on an in-flight entry still receive its owner's
// result, but that result is not retained, and a caller arriving after the
// reset computes the key again. No caller ever sees another key's value.
func (f *Flight[K, V]) Reset() {
	f.once.Do(f.init)
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.Lock()
		s.m = nil
		s.mu.Unlock()
	}
}
