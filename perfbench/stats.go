package main

import (
	"errors"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs by the
// nearest-rank rule, and false when fewer than minBeyond samples would
// lie above it: a tail percentile of a short run is noise, so it is not
// reported at all. The median needs only one sample.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 0.5 {
		if n%2 == 1 {
			return s[n/2], true
		}
		return (s[n/2-1] + s[n/2]) / 2, true
	}
	rank := max(int(math.Ceil(p*float64(n)-1e-9))-1, 0) // nearest rank, 0-based
	if n-1-rank < minBeyond {
		return 0, false
	}
	return s[rank], true
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB (getrusage
// reports KiB on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rssEpochs is how many equal stretches of the timed ops max_rss_mb is
// taken over: it is the median of the stretches' peak RSS. A chain run's
// peak comes from a brief spike at the end of each deep op whose height
// depends on when the garbage collector ran; whole-run peaks of identical
// chain runs read either about 15.7 or 18–23 MiB. A stretch of a 25 s run
// holds about one chain pass.
const rssEpochs = 3

// rssTracker records the peak RSS of consecutive stretches. On Linux,
// writing "5" to /proc/self/clear_refs resets the peak (VmHWM) to the
// current RSS; where that fails, the process's peak from getrusage is the
// one value.
type rssTracker struct {
	ok    bool
	peaks []float64
	stop  chan struct{}
	done  chan struct{}
}

// trackRSS starts a stretch now and cuts the next ones every interval
// until finish.
func trackRSS(interval time.Duration) *rssTracker {
	t := &rssTracker{stop: make(chan struct{}), done: make(chan struct{})}
	t.ok = resetPeakRSS() == nil
	go func() {
		defer close(t.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for i := 1; i < rssEpochs; i++ {
			select {
			case <-tick.C:
				t.cut()
			case <-t.stop:
				return
			}
		}
	}()
	return t
}

// cut ends the current stretch.
func (t *rssTracker) cut() {
	if !t.ok {
		return
	}
	if hwm, err := peakRSSMB(); err == nil && resetPeakRSS() == nil {
		t.peaks = append(t.peaks, hwm)
	} else {
		t.ok = false
	}
}

// finish ends the last stretch and returns the median peak in MiB.
func (t *rssTracker) finish() float64 {
	close(t.stop)
	<-t.done
	t.cut()
	if !t.ok || len(t.peaks) == 0 {
		return maxRSSMB()
	}
	return median(t.peaks)
}

func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the peak RSS since the last reset, in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// tally counts ops: every attempted op stays in the latency sample,
// whether it passed its checks or not.
type tally struct {
	lat      []float64 // ms, one per attempted op
	attempts int
	failed   int
	errs     []string
}

// record adds one op's latency and verdict; err is the op's error or
// failed check.
func (t *tally) record(ms float64, err error) {
	t.lat = append(t.lat, ms)
	t.attempts++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// okFrac is the share of attempted ops that passed their checks.
func (t *tally) okFrac() float64 {
	if t.attempts == 0 {
		return 0
	}
	return float64(t.attempts-t.failed) / float64(t.attempts)
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
