package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// resolveWorkers normalizes a Workers knob: 0 (or negative) means
// GOMAXPROCS, anything else is taken as given.
func resolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// parallelChunks runs fn(chunk) for every chunk index in [0, nChunks)
// across at most workers goroutines. fn must touch only state owned by
// its chunk; chunks are claimed from a shared counter, so the mapping of
// chunks to goroutines is arbitrary — determinism comes from chunk
// ownership, never from scheduling.
func parallelChunks(nChunks, workers int, fn func(chunk int)) {
	if workers > nChunks {
		workers = nChunks
	}
	if workers <= 1 || nChunks <= 1 {
		for c := 0; c < nChunks; c++ {
			fn(c)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				fn(c)
			}
		}()
	}
	wg.Wait()
}
