// Row-band tiling for the suffix kernels. The warp/composite loops
// write disjoint output rows, so partitioning the row range into
// contiguous bands and running the bands on goroutines changes nothing
// observable: every band computes exactly the values the sequential
// loop would, into locations no other band touches, and integer
// reductions (pixels written) are summed over bands in index order.
package warp

import (
	"runtime"
	"sync"
)

// minBandRows is the smallest band worth a goroutine; below roughly
// this many scanlines the spawn/join overhead exceeds the kernel work.
const minBandRows = 32

// bandCount returns how many row bands [0, rows) is split into:
// GOMAXPROCS-bounded when the kernel is tall enough to amortize
// goroutines, else 1 (purely sequential).
func bandCount(rows int) int {
	n := runtime.GOMAXPROCS(0)
	if n > rows/minBandRows {
		n = rows / minBandRows
	}
	if n < 1 {
		n = 1
	}
	return n
}

// forEachBand partitions [0, rows) into bandCount contiguous bands and
// runs fn(band, lo, hi) for each; bands run concurrently when there is
// more than one. The partition boundaries (b*rows/n) depend only on
// rows and the band count, and the bands are disjoint and cover the
// range, so a kernel whose bands write disjoint rows produces
// byte-identical output for any band count including one.
func forEachBand(rows int, fn func(band, lo, hi int)) {
	n := bandCount(rows)
	if n <= 1 {
		if rows > 0 {
			fn(0, 0, rows)
		}
		return
	}
	var wg sync.WaitGroup
	for b := 0; b < n; b++ {
		lo, hi := b*rows/n, (b+1)*rows/n
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(b, lo, hi int) {
			defer wg.Done()
			fn(b, lo, hi)
		}(b, lo, hi)
	}
	wg.Wait()
}
