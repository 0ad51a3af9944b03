package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// epoch is the zero of every time this program records.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// stolenShare starts an interval; the function it returns gives the
// share of the CPU time the guest wanted during the interval that the
// hypervisor gave to someone else (the steal column of /proc/stat), and
// 0 where there is no /proc/stat. A stolen core does not run slowly, it
// does not run, so the probes of speed.go do not see it.
func stolenShare() func() float64 {
	busy0, steal0 := cpuTicks()
	return func() float64 {
		busy, steal := cpuTicks()
		return ratio(steal-steal0, busy-busy0)
	}
}

// cpuTicks reads the first line of /proc/stat: ticks the guest's CPUs
// were wanted (busy, steal included) and ticks of those that were
// stolen.
func cpuTicks() (busy, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	v := make([]float64, 8)
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	// user nice system idle iowait irq softirq steal
	return v[0] + v[1] + v[2] + v[5] + v[6] + v[7], v[7]
}

// every calls fn at once and then every d, on a goroutine of its own,
// until the returned function is called; that function returns when the
// goroutine has ended.
func every(d time.Duration, fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(d)
		defer tick.Stop()
		for {
			fn()
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
