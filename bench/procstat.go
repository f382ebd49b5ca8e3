package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ: the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux architecture Go runs on
// (the runtime assumes the same), and reading it properly needs cgo.
const clockTick = 100

// procSample is one reading of a process's accumulated CPU time and
// resident set.
type procSample struct {
	CPU time.Duration // utime + stime
	RSS int64         // bytes
}

// parseProcStat parses the contents of /proc/<pid>/stat. The command
// name (field 2) may contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseProcStat(stat string) (procSample, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return procSample{}, fmt.Errorf("procstat: no command field in %q", stat)
	}
	f := strings.Fields(stat[end+1:])
	// f[0] is field 3 (state); utime is field 14, stime 15, rss 24.
	const utime, stime, rss = 14 - 3, 15 - 3, 24 - 3
	if len(f) <= rss {
		return procSample{}, fmt.Errorf("procstat: %d fields after the command, want more than %d", len(f), rss)
	}
	u, err := strconv.ParseInt(f[utime], 10, 64)
	if err != nil {
		return procSample{}, fmt.Errorf("procstat: utime: %w", err)
	}
	s, err := strconv.ParseInt(f[stime], 10, 64)
	if err != nil {
		return procSample{}, fmt.Errorf("procstat: stime: %w", err)
	}
	pages, err := strconv.ParseInt(f[rss], 10, 64)
	if err != nil {
		return procSample{}, fmt.Errorf("procstat: rss: %w", err)
	}
	return procSample{
		CPU: time.Duration(u+s) * (time.Second / clockTick),
		RSS: pages * int64(os.Getpagesize()),
	}, nil
}

// parseSchedstat returns the on-CPU time from the contents of a
// /proc/<pid>/task/<tid>/schedstat file: its first field, in ns.
func parseSchedstat(s string) (time.Duration, error) {
	f := strings.Fields(s)
	if len(f) < 1 {
		return 0, fmt.Errorf("procstat: empty schedstat")
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procstat: schedstat: %w", err)
	}
	return time.Duration(ns), nil
}

// readProc samples a process. RSS comes from /proc/<pid>/stat. CPU time
// is summed over the threads' schedstat files, which count nanoseconds
// actually run. stat's utime+stime are sampled on the 10 ms timer tick,
// which over-counts a server whose work is itself woken by timers; they
// are used only on a kernel without scheduler statistics. A thread that
// exits between the directory listing and the read is skipped (the Go
// runtime all but never exits threads).
func readProc(pid int) (procSample, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procSample{}, fmt.Errorf("procstat: %w", err)
	}
	s, err := parseProcStat(string(raw))
	if err != nil {
		return s, err
	}
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return s, nil
	}
	var cpu time.Duration
	read := 0
	for _, t := range tasks {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue
		}
		d, err := parseSchedstat(string(raw))
		if err != nil {
			continue
		}
		cpu += d
		read++
	}
	if read > 0 {
		s.CPU = cpu
	}
	return s, nil
}

// selfCPU is this process's user+system CPU time, at microsecond
// resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// parseSteal returns the host-stolen time from the contents of
// /proc/stat: the eighth value of the aggregate "cpu" line, in ticks.
// Stolen time is when a virtual CPU had work but the hypervisor ran
// something else on the physical one.
func parseSteal(stat string) (time.Duration, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("procstat: no aggregate cpu line with a steal field")
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procstat: steal: %w", err)
	}
	return time.Duration(ticks) * (time.Second / clockTick), nil
}

// readSteal samples the machine's accumulated stolen time (0 where the
// kernel does not report it).
func readSteal() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	d, err := parseSteal(string(raw))
	if err != nil {
		return 0
	}
	return d
}

// stealLimit is the share of the machine's CPU time the host may steal
// in a window before the window is set aside. A quiet host steals
// nothing measurable; a busy one was seen stealing half.
const stealLimit = 0.03

// stolenShare is the stolen share of the CPU time `cpus` processors
// offered over `wall`.
func stolenShare(stolen, wall time.Duration, cpus int) float64 {
	if wall <= 0 || cpus <= 0 {
		return 0
	}
	return float64(stolen) / (float64(wall) * float64(cpus))
}
