package main

import (
	"bufio"
	"bytes"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The machine the benchmark runs on is shared: its speed drifts by 10–30%
// over tens of seconds as other tenants come and go, more than any bound a
// regression gate could use. So every library workload times a fixed
// reference task right after each call into the program, on as many
// threads as the call uses, and scales the call's time to the speed the
// task has on the calibration machine (README.md):
//
//	scaled time = raw time × speed,  speed = nominal task time ÷ task time now
//
// Drift slows the call and the task alike, so the scaled time holds still
// while the raw time moves. The task mixes the two kinds of work a
// projection does — a byte-at-a-time loop, like the matching engine, and a
// vectorized sweep over memory, like the scan kernel — because either alone
// tracks the drift of a projection less closely. The task is the
// benchmark's own code, so no change to the program under test can move it.

const (
	refLoopBytes  = 512 << 10
	refSweepBytes = 4 << 20
)

// refNominal is the task's median time on the calibration machine, by the
// number of threads running it at once: the machine's 2 CPUs slow each
// other down.
var refNominal = [...]time.Duration{1: 1450 * time.Microsecond, 2: 1660 * time.Microsecond}

// yardstick is the reference task's input: a fixed pseudo-XML buffer,
// letters with '<' and '>' at 5% each, the same on every run whatever the
// seed. It is a read-only file mapping, so it neither counts as the
// anonymous memory mem_peak_mib measures nor grows the Go heap, whose size
// paces the program's garbage collector.
type yardstick struct {
	input []byte
}

// refSink keeps the task's result alive.
var refSink atomic.Int64

// newYardstick writes the task's input to path and maps it.
func newYardstick(path string) (*yardstick, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	r := splitmix64{0x5eed}
	for i := 0; i < refSweepBytes; i++ {
		b := 'a' + byte(i%26)
		switch r.next() % 20 {
		case 0:
			b = '<'
		case 1:
			b = '>'
		}
		bw.WriteByte(b)
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	input, err := syscall.Mmap(int(f.Fd()), 0, refSweepBytes, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	return &yardstick{input: input}, nil
}

func (y *yardstick) close() error { return syscall.Munmap(y.input) }

// task counts markup bytes one at a time, like a naive tokenizer's inner
// loop, then sweeps the whole input for one byte with the vectorized
// bytes.Count.
func (y *yardstick) task() {
	var n int64
	for _, c := range y.input[:refLoopBytes] {
		if c == '<' || c == '>' {
			n++
		}
	}
	refSink.Add(n + int64(bytes.Count(y.input, []byte{'<'})))
}

// speedSpan is how many measurements on each side of one its smoothed
// speed covers: one reference task is as noisy as the drift it tracks, a
// median of 17 is not, and the drift is slow next to the second or so they
// span.
const speedSpan = 8

// smoothed returns each measured speed replaced by the median of the
// speeds measured around it.
func smoothed(speeds []float64) []float64 {
	s := make([]float64, len(speeds))
	for i := range s {
		s[i] = median(speeds[max(i-speedSpan, 0):min(i+speedSpan+1, len(speeds))])
	}
	return s
}

// speed runs the reference task on threads goroutines at once and returns
// the machine's current speed as a share of the calibration machine's.
func (y *yardstick) speed(threads int) float64 {
	t0 := time.Now()
	if threads == 1 {
		y.task()
	} else {
		var wg sync.WaitGroup
		for i := 0; i < threads; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				y.task()
			}()
		}
		wg.Wait()
	}
	return float64(refNominal[threads]) / float64(time.Since(t0))
}
