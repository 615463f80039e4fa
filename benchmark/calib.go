package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// calibRef is the calibration loop's duration on the build box when that is
// at its faster speed, so a reported second is a second there. It is frozen:
// every timing sample is scaled by (calibRef / the calibration measured
// around that sample) to the power calibExp, so changing either rescales
// every reported second and breaks comparison with earlier results.
const calibRef = 0.0135

// calibExp is how much more the workloads slow down than the loop does when
// the machine does. The build box has two speeds and spends about half its
// time at each; at the slower one the loop takes 1.3 times as long and a job
// sequence 1.3 to 1.6 times (the loop is straight-line work on two
// goroutines; the engines also allocate, wake goroutines and enter the
// kernel). Over 160 runs that saw both speeds, scaling in proportion left
// the medians at the slower speed 2 to 25 % above those at the faster one,
// the power 1.5 between 9 % below and 11 % above; README.md, "Timing that
// repeats", has the table.
const calibExp = 1.5

const (
	calibWorkers   = 2
	calibSortWords = 1 << 17 // uint64s filled and sorted per worker
	calibScanBytes = 4 << 20 // bytes walked with a cache-line stride per worker
	calibScanPass  = 4
)

// calibrator owns the calibration loop's buffers, so the loop itself
// allocates nothing and does not disturb the allocation metrics.
type calibrator struct {
	words [calibWorkers][]uint64
	scan  [calibWorkers][]byte
	sink  [calibWorkers]uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := range c.words {
		c.words[i] = make([]uint64, calibSortWords)
		c.scan[i] = make([]byte, calibScanBytes)
	}
	return c
}

// run executes one calibration loop and returns its wall seconds. The loop
// mixes what the engines spend their time on — comparisons and swaps over
// a working set larger than L2 (the sort) and memory bandwidth (the strided
// passes) — on as many goroutines as the cluster keeps busy, so it slows
// down when the machine does, in roughly the proportion the workloads do.
func (c *calibrator) run() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < calibWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := uint64(0x9E3779B97F4A7C15) + uint64(w)
			ws := c.words[w]
			for i := range ws {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				ws[i] = x
			}
			slices.Sort(ws)
			buf := c.scan[w]
			var sum uint64
			for pass := 0; pass < calibScanPass; pass++ {
				for i := pass; i < len(buf); i += 64 {
					buf[i]++
					sum += uint64(buf[i])
				}
			}
			c.sink[w] = sum + ws[len(ws)/2]
		}(w)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// corrected scales one wall-clock sample by the calibration loops that
// bracket it.
func corrected(wall, calibBefore, calibAfter float64) float64 {
	return wall * math.Pow(calibRef/((calibBefore+calibAfter)/2), calibExp)
}
