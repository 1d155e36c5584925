package main

import (
	"math/big"
	"sync"
	"time"
)

// The reference box is a shared two-core VM whose speed shifts by 25 to
// 60 % within seconds and stays shifted for minutes: a loop of fixed
// work read 19 ms per round at the start of a quarter of an hour, 32 ms
// in its middle and 24 ms at its end, on both cores alike. Medians
// inside a ten-second run never see such a shift, and no bound the
// driver accepts would survive it.
//
// The probe does. It is a fixed piece of work that is not code under
// test — allocating exact-rational arithmetic on both cores at once,
// which tracked the workloads best of five candidate kernels — timed by
// the parent right before and right after every repetition, while no
// child runs. A repetition is a second or two long, so the two readings
// bracket it closely; its speed factor is their mean over probeNominal,
// and the time metrics are reported divided by it: seconds at the quiet
// reference box's speed. report.json keeps each metric's raw median and
// bench.speed_factor beside the corrected value.

const (
	probeSteps = 40_000 // per thread
	// probeNominal is the probe's reading on the quiet reference box.
	probeNominal = 0.115
)

// probeOnce is one thread's share of the probe.
func probeOnce() int {
	a := big.NewRat(1, 3)
	for i := 0; i < probeSteps; i++ {
		a.Add(a, big.NewRat(int64(i%97+1), int64(i%89+2)))
		a.Mul(a, big.NewRat(3, 4))
		if i%64 == 0 {
			a.SetFrac64(1, 3)
		}
	}
	return a.Sign()
}

// probeSeconds runs the probe on two threads at once. It reports the
// whole interval, not a median of slices: a repetition integrates the
// machine's stalls over its length, and so must its yardstick.
func probeSeconds() float64 {
	var wg sync.WaitGroup
	var signs [2]int // kept, so the work is not optimized away
	t0 := time.Now()
	for i := range signs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			signs[i] = probeOnce()
		}(i)
	}
	wg.Wait()
	seconds := time.Since(t0).Seconds()
	if signs[0] != signs[1] {
		panic("bench: the probe's two threads disagree")
	}
	return seconds
}

// speedometer reads the machine's speed around repetitions.
type speedometer struct {
	off  bool // smoke profile: times are not the point, report factor 1
	last float64
	at   time.Time
}

func (s *speedometer) read() float64 {
	if s.off {
		return probeNominal
	}
	s.last = probeSeconds()
	s.at = time.Now()
	return s.last
}

// recent returns the last reading when it is fresh: the probe after one
// repetition is the probe before the next.
func (s *speedometer) recent() float64 {
	if !s.at.IsZero() && time.Since(s.at) < 100*time.Millisecond {
		return s.last
	}
	return s.read()
}
