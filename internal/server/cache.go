package server

// The source-program compile cache. Workload cells are cached and coalesced
// by the eval.Runner's singleflight caches; inline-source programs get the
// same treatment here, keyed by content hash so identical submissions —
// concurrent or repeated — are assembled, formed and scheduled exactly once
// per machine configuration.

import (
	"context"
	"crypto/sha256"

	"sentinel/internal/core"
	"sentinel/internal/eval"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/obs"
	"sentinel/internal/prog"
	"sentinel/internal/sim"
)

// sourceKey identifies one compiled source program: content hash × machine
// configuration × formation on/off.
type sourceKey struct {
	sum  [sha256.Size]byte
	md   machine.Desc
	form bool
}

// compiled is the read-only compile artifact of one source program; mem is
// the pristine input image, cloned per simulation.
type compiled struct {
	prog  *prog.Program
	index *sim.ProgIndex
	stats core.Stats
	mem   *mem.Memory
	ref   *prog.Result
}

// sourceCache is the Runner caches' singleflight memo with a capacity cap.
// Once the cache holds cap entries it is dropped wholesale — the artifacts
// are deterministic, so a cold recompute is only a latency cost, and a
// wholesale reset keeps the bookkeeping trivial under concurrent fills.
// Compile errors are cached with values (a malformed program stays
// malformed); a context error is the owner's deadline, not a property of
// the program, so it is evicted instead.
type sourceCache struct {
	eval.Flight[sourceKey, *compiled]
	cap int
}

func newSourceCache(capacity int) *sourceCache {
	c := &sourceCache{cap: max(capacity, 1)}
	c.Arg = obs.ArgSources
	return c
}

// get returns the cached compile of k, computing it via fn on first use. A
// caller whose context expires while another goroutine compiles unblocks
// with the context's error.
func (c *sourceCache) get(ctx context.Context, k sourceKey, fn func() (*compiled, error)) (*compiled, error) {
	if c.Len() >= c.cap {
		c.Reset()
	}
	return c.GetCtx(ctx, k, fn)
}
