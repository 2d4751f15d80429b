package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 90, 75, 50}

// tailMinBeyond is how many samples must lie above a reported percentile:
// fewer, and the percentile is set by a handful of outliers.
const tailMinBeyond = 10

// Tail is the highest percentile of a sample that has at least
// tailMinBeyond samples beyond it, by the nearest-rank definition.
type Tail struct {
	Pct   float64 // the percentile, e.g. 99; 0 when no percentile qualifies
	Value float64
	N     int // the sample count
}

// Label renders the percentile as a metric suffix, e.g. "p99" or "p99.9".
func (t Tail) Label() string {
	if t.Pct == 0 {
		return "none"
	}
	return "p" + trimFloat(t.Pct)
}

// tail applies the percentile rule to xs: the highest percentile in
// tailLadder whose nearest-rank position leaves at least tailMinBeyond
// samples strictly after it.
func tail(xs []float64) Tail {
	s := sortedCopy(xs)
	n := len(s)
	for _, p := range tailLadder {
		if rank := nearestRank(p, n); n-rank >= tailMinBeyond {
			return Tail{Pct: p, Value: s[rank-1], N: n}
		}
	}
	return Tail{N: n}
}

// nearestRank is the 1-based nearest-rank position of the p-th percentile
// among n samples (the epsilon absorbs the rounding of p*n/100, so that
// p99.9 of 10000 samples is rank 9990, not 9991).
func nearestRank(p float64, n int) int {
	return max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
}

// percentileOrNaN returns the nearest-rank p-th percentile of xs when the
// percentile rule allows reporting it (at least tailMinBeyond samples
// beyond it), NaN otherwise.
func percentileOrNaN(xs []float64, p float64) float64 {
	n := len(xs)
	rank := nearestRank(p, n)
	if n-rank < tailMinBeyond {
		return math.NaN()
	}
	return sortedCopy(xs)[rank-1]
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMiB returns the process's peak resident set size in MiB
// (getrusage ru_maxrss, which Linux reports in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// ratio returns a/b, or 0 when b is 0 (a rate over no attempts).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssEvery is how often rssSampler reads the resident set size.
const rssEvery = 50 * time.Millisecond

// rssSampler samples the process's resident set size in the background,
// so a run can report the memory it holds while it works rather than a
// single peak that depends on when the garbage collector last ran.
type rssSampler struct {
	start   time.Time
	stop    chan struct{}
	done    chan struct{}
	samples []rssSample // written by the sampling goroutine until done closes
}

type rssSample struct {
	at    time.Duration
	bytes float64
}

// startRSS starts sampling; finish stops it.
func startRSS() *rssSampler {
	s := &rssSampler{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if b, ok := residentBytes(); ok {
				s.samples = append(s.samples, rssSample{at: time.Since(s.start), bytes: b})
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns, in MiB, the median over whole
// statWindow windows of each window's highest sample (the highest sample
// overall when the run is shorter than a window).
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	peaks := map[int]float64{}
	var top float64
	for _, x := range s.samples {
		w := int(x.at / statWindow)
		peaks[w] = max(peaks[w], x.bytes)
		top = max(top, x.bytes)
	}
	var whole []float64
	for w, p := range peaks {
		if time.Duration(w+1)*statWindow <= time.Since(s.start) {
			whole = append(whole, p)
		}
	}
	if len(whole) == 0 {
		return top / (1 << 20)
	}
	return median(whole) / (1 << 20)
}

// residentBytes reads the resident set size from /proc/self/statm.
func residentBytes() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0, false
	}
	return float64(resident * int64(os.Getpagesize())), true
}
