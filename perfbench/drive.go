package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one attempted request of a timed window.
type sample struct {
	id         int64
	start, end time.Time
	out        outcome
	resp       *reply
}

func (s sample) ms() float64 { return float64(s.end.Sub(s.start)) / 1e6 }

// window is one closed-loop timed run with its process-level costs.
type window struct {
	samples  []sample
	elapsed  time.Duration
	cpu      time.Duration // process user+sys CPU
	peakMB   float64       // median of the slices' VmHWM
	gcCycles uint64
}

// verified returns the latencies (ms) of the verified requests.
func (w *window) verified() []float64 {
	var out []float64
	for _, s := range w.samples {
		if !s.out.failed() {
			out = append(out, s.ms())
		}
	}
	return out
}

// drive runs the workload's clients as a closed loop for d. Each client
// sends its next request only after the previous reply is verified. If
// fewer than minVerified requests verified by then, the clients go on
// until they have (at most 3·d), so a tail percentile always rests on
// enough samples. Request ids are drawn from ids.
func (f *fixture) drive(in *inputs, d time.Duration, minVerified int64, ids *atomic.Int64) (*window, error) {
	// Drop set-up garbage so the peak reflects serving, not the set-up's
	// leftovers.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	stopRSS, peaks := make(chan struct{}), make(chan rssPeaks, 1)
	go func() { peaks <- samplePeaks(stopRSS, d/rssSlices) }()
	cpu0, gc0 := cpuTime(), gcCycles()
	start := time.Now()
	deadline, hard := start.Add(d), start.Add(3*d)
	ctx, cancel := context.WithDeadline(context.Background(), hard.Add(30*time.Second))
	defer cancel()

	var verified atomic.Int64
	perClient := make([][]sample, f.w.clients)
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				now := time.Now()
				if now.After(hard) || (now.After(deadline) && verified.Load() >= minVerified) {
					return
				}
				s := sample{id: ids.Add(1), start: now}
				s.resp, s.out = f.join(ctx, s.id)
				s.end = time.Now()
				if !s.out.failed() {
					s.out.verify = verify(f.w, in.pairs[f.pairOf(s.id)], s.resp)
				}
				if !s.out.failed() {
					verified.Add(1)
				}
				perClient[c] = append(perClient[c], s)
			}
		}(c)
	}
	wg.Wait()
	win := &window{elapsed: time.Since(start), cpu: cpuTime() - cpu0, gcCycles: gcCycles() - gc0}
	close(stopRSS)
	rss := <-peaks
	if rss.err != nil {
		return nil, rss.err
	}
	win.peakMB = median(rss.mb)
	for _, ss := range perClient {
		win.samples = append(win.samples, ss...)
	}
	if n := verified.Load(); n < minVerified {
		return win, fmt.Errorf("only %d verified requests in %v (need %d)", n, win.elapsed.Round(time.Millisecond), minVerified)
	}
	return win, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// rssSlices is how many slices a window's peak RSS is sampled in. The
// reported peak is the slices' median, so one slice's garbage-collection
// timing does not set it.
const rssSlices = 10

type rssPeaks struct {
	mb  []float64
	err error
}

// samplePeaks reads and resets the process's peak RSS every slice until
// stop is closed, then returns the peaks of the completed slices plus the
// last partial one.
func samplePeaks(stop <-chan struct{}, slice time.Duration) rssPeaks {
	var res rssPeaks
	tick := time.NewTicker(slice)
	defer tick.Stop()
	read := func() {
		mb, err := peakRSSMB()
		if err == nil {
			err = resetPeakRSS()
		}
		if err != nil && res.err == nil {
			res.err = err
		}
		res.mb = append(res.mb, mb)
	}
	for {
		select {
		case <-tick.C:
			read()
		case <-stop:
			read()
			return res
		}
	}
}

// resetPeakRSS sets VmHWM back to the current RSS.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's VmHWM in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
