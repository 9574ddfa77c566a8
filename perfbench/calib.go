package main

import "time"

// calibrate runs two fixed kernels and returns each one's median wall
// time over five runs, in milliseconds: a pure-CPU integer hash loop and
// a dependent pointer chase through a 32 MiB table, which mostly misses
// the caches. Neither touches the program under test, so a change in
// them between two runs is host drift, not a regression.
func calibrate() (cpuMs, memMs float64) {
	const (
		cpuIters = 20_000_000
		memWords = 8 << 20 // 8 Mi uint32 = 32 MiB
		memSteps = 512 << 10
	)
	// One random cycle through the table (Sattolo's algorithm), so each
	// load depends on the previous one.
	next := make([]uint32, memWords)
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := memWords - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	var cpu, mem []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		h := uint64(r)
		for i := 0; i < cpuIters; i++ {
			h ^= h << 13
			h ^= h >> 7
			h ^= h << 17
			h += uint64(i)
		}
		cpu = append(cpu, float64(time.Since(start))/1e6)
		sink += h

		start = time.Now()
		p := uint32(r)
		for i := 0; i < memSteps; i++ {
			p = next[p]
		}
		mem = append(mem, float64(time.Since(start))/1e6)
		sink += uint64(p)
	}
	return median(cpu), median(mem)
}

// sink keeps the kernels' results live so the compiler cannot drop them.
var sink uint64
