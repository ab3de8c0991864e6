package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stabledispatch/internal/stats"
)

// cpuTime is the CPU time this process has used so far, user plus system,
// summed over its threads. Unlike wall time it excludes time the host
// steals from the virtual CPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median is the 50th percentile of xs (NaN when empty).
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// p99 is the 99th percentile of xs (NaN when empty).
func p99(xs []float64) float64 { return stats.Percentile(xs, 99) }

// ratio is num/den, or 0 when nothing was attempted (a bypassed layer).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// statusMB reads one memory field of a process's /proc status file, such
// as "VmRSS", in MiB. pid 0 means this process.
func statusMB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", path, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s has no %s line", path, field)
}

// rssMean averages a process's resident set size over samples taken
// evenly through a phase. Unlike the peak (VmHWM), which jumps by up to the
// whole heap growth whenever a garbage collection lands just before or
// after the end of the phase, the mean moves little with GC timing.
type rssMean struct {
	pid int // 0 means this process
	sum float64
	n   int
	err error // the first failed read
}

func (r *rssMean) sample() {
	v, err := statusMB(r.pid, "VmRSS")
	if err != nil {
		if r.err == nil {
			r.err = err
		}
		return
	}
	r.sum += v
	r.n++
}

// mean is the mean sample in MiB, or the first read error.
func (r *rssMean) mean() (float64, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.n == 0 {
		return 0, fmt.Errorf("no resident-memory samples")
	}
	return r.sum / float64(r.n), nil
}

// procCPU is the CPU time a process has used so far, user plus system,
// from /proc/<pid>/stat (clock-tick resolution, 10 ms).
func procCPU(pid int) (time.Duration, error) {
	path := fmt.Sprintf("/proc/%d/stat", pid)
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is the first,
	// utime the 12th and stime the 13th.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 13 {
		return 0, fmt.Errorf("parse %s: too few fields", path)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", path, err)
		}
		ticks += n
	}
	// /proc reports CPU time in USER_HZ ticks, 100 per second on Linux.
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// zero sets every named metric to 0: the layer is bypassed on this
// workload, which is the prediction "no change" is checked against.
func zero(m map[string]float64, names ...string) {
	for _, n := range names {
		m[n] = 0
	}
}
