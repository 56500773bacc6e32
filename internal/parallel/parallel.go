// Package parallel is SmartVLC's deterministic parallel execution
// engine: a bounded worker pool plus the two primitives that keep
// concurrent simulation bit-reproducible —
//
//   - Sharded RNG streams. Every unit of parallel work draws from its own
//     rand/v2 PCG stream derived from (seed, salt, shardIndex), never from
//     a stream shared with a sibling, so the random numbers a shard
//     consumes are a function of the shard's identity alone — not of which
//     worker ran it or in what order.
//
//   - Order-preserving merge. ForEach/Map index results by the item's
//     position and callers fold them back together in index order, so the
//     merged output is byte-identical for every worker count (including
//     the serial workers=1 path) and for every GOMAXPROCS.
//
// Work distribution (which worker picks up which index) is intentionally
// left nondeterministic — only wall-clock time may depend on it. Shard
// partitioning, by contrast, must never depend on the worker count: use
// Split, whose geometry is a function of the workload size alone.
package parallel

import (
	"context"
	"math/rand/v2"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// Do runs fn under pprof goroutine labels (k1, v1, k2, v2, ...), so
// wall-clock CPU profiles attribute the work to the same dimensions the
// deterministic stage profiler uses (session, stage, scheme, level).
// Callers on a profiling-off fast path should guard the call themselves:
// building the label set allocates.
func Do(fn func(), labelPairs ...string) {
	pprof.Do(context.Background(), pprof.Labels(labelPairs...), func(context.Context) { fn() })
}

// LabelContext pre-builds a goroutine-label context for SetLabels. Hot
// loops that switch labels per phase build one context per label set up
// front and switch with SetLabels, which allocates nothing.
func LabelContext(labelPairs ...string) context.Context {
	return pprof.WithLabels(context.Background(), pprof.Labels(labelPairs...))
}

// SetLabels applies a pre-built label context to the calling goroutine.
func SetLabels(ctx context.Context) { pprof.SetGoroutineLabels(ctx) }

// Workers resolves a requested worker count: values below 1 select
// GOMAXPROCS, everything else passes through.
func Workers(requested int) int {
	if requested >= 1 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// RNG returns the deterministic rand stream for one shard of a workload:
// a PCG generator seeded with (seed, salt+shard). Distinct salts keep
// unrelated workloads of the same session on disjoint streams; distinct
// shard indices keep siblings independent. Callers must ensure their salt
// spacing exceeds the shard count.
func RNG(seed, salt uint64, shard int) *rand.Rand {
	return rand.New(PCG(seed, salt, shard))
}

// PCG returns the concrete generator behind RNG's stream for the shard.
// Shards that feed the PHY fast path keep both views of one generator:
// the Rand for scalar draws, the PCG for the inlined sampler twins —
// they stay in lockstep on the shared state.
func PCG(seed, salt uint64, shard int) *rand.PCG {
	return rand.NewPCG(seed, salt+uint64(shard))
}

// Shard is one contiguous span of a sharded workload.
type Shard struct {
	// Index is the shard number — the RNG stream selector.
	Index int
	// Start is the first item of the span.
	Start int
	// Count is the number of items in the span.
	Count int
}

// Split partitions total items into shards of at most size items each.
// The partition depends only on (total, size) — never on the worker count
// or GOMAXPROCS — which is what makes sharded Monte-Carlo results
// machine-independent: each shard owns a fixed slice of the budget and a
// fixed RNG stream no matter how many workers drain the shard queue.
func Split(total, size int) []Shard {
	if total <= 0 {
		return nil
	}
	if size <= 0 {
		size = total
	}
	shards := make([]Shard, 0, (total+size-1)/size)
	for start := 0; start < total; start += size {
		n := size
		if start+n > total {
			n = total - start
		}
		shards = append(shards, Shard{Index: len(shards), Start: start, Count: n})
	}
	return shards
}

// firstError returns the lowest-index error, so the reported failure is
// deterministic even when several shards fail concurrently.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForEach runs fn(0), …, fn(n-1) across at most workers goroutines
// (workers < 1 selects GOMAXPROCS) and waits for all of them. Every index
// runs even if an earlier one fails — indices are independent by contract
// — and the returned error is the lowest-index failure. With one worker
// the indices run in order on the calling goroutine.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	errs := make([]error, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
		return firstError(errs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return firstError(errs)
}

// Map runs fn for every index across at most workers goroutines and
// returns the results in index order — the order-preserving merge. On
// error the lowest-index failure is returned and the results are
// discarded.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Pool is a persistent bounded worker pool for hot loops that fan out
// many times (e.g. once per simulated frame window): the workers are
// spawned once, so each fan-out costs channel handoffs instead of
// goroutine creation. A Pool must be Closed when the loop ends. Fan-outs
// must not be nested (a job must not call back into its own pool's
// ForEach/Run — with all workers busy that deadlocks).
type Pool struct {
	workers int
	jobs    chan poolJob
	close   sync.Once
}

type poolJob struct {
	idx  int
	run  func(i int) error
	errs []error // nil for Run jobs
	wg   *sync.WaitGroup
}

// NewPool starts a pool with the resolved worker count (requested < 1
// selects GOMAXPROCS).
func NewPool(requested int) *Pool { return NewPoolLabeled(requested) }

// NewPoolLabeled is NewPool with pprof goroutine labels applied to every
// worker for its lifetime, so CPU profiles attribute pooled work (e.g.
// broadcast PHY shards) to the owning session instead of an anonymous
// goroutine. Labels are set once at spawn — the per-job hot path is
// untouched.
func NewPoolLabeled(requested int, labelPairs ...string) *Pool {
	w := Workers(requested)
	p := &Pool{workers: w, jobs: make(chan poolJob, w)}
	for i := 0; i < w; i++ {
		go func() {
			if len(labelPairs) > 0 {
				pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels(labelPairs...)))
			}
			for j := range p.jobs {
				err := j.run(j.idx)
				if j.errs != nil {
					j.errs[j.idx] = err
				}
				j.wg.Done()
			}
		}()
	}
	return p
}

// Workers returns the resolved worker count.
func (p *Pool) Workers() int { return p.workers }

// Close releases the pool's workers. Idempotent; the pool must not be
// used afterwards.
func (p *Pool) Close() { p.close.Do(func() { close(p.jobs) }) }

// ForEach runs fn(0), …, fn(n-1) on the pool and waits; semantics match
// the package-level ForEach.
func (p *Pool) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		p.jobs <- poolJob{idx: i, run: fn, errs: errs, wg: &wg}
	}
	wg.Wait()
	return firstError(errs)
}

// Run is ForEach for infallible bodies: no error slice is allocated, so a
// per-frame fan-out costs one WaitGroup and n channel sends.
func (p *Pool) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	body := func(i int) error { fn(i); return nil }
	for i := 0; i < n; i++ {
		p.jobs <- poolJob{idx: i, run: body, wg: &wg}
	}
	wg.Wait()
}
