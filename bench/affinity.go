package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Runs fix two things about the machine that, left alone, moved server
// CPU per upload between modes 40% apart on the calibration machine (a
// 2-vCPU KVM guest), and doubled the run-to-run spread of city_mobile,
// whose goroutines park on contended locks nine thousand times a second.
//
// Placement (socket runs): the generator (this process) is pinned to the
// first half of the allowed CPUs and every server process to the second
// half, so every cross-CPU wake-up is the same in every run. With a
// single CPU there is nothing to split.
//
// Idle (every run): one SCHED_IDLE spinner per CPU keeps the virtual
// CPUs from halting. A halted vCPU is woken through the hypervisor, whose cost
// depends on what the host is doing at that moment; a vCPU that never
// halts takes the wake-up directly. The spinners are this binary re-run
// with -spin; SCHED_IDLE gives them only cycles nothing else wants, and
// they are separate processes, so neither the servers' nor the
// generator's CPU accounting sees them.

// cpuSet is a CPU affinity mask (up to 1024 CPUs).
type cpuSet [16]uint64

func (s *cpuSet) add(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

func (s *cpuSet) list() []int {
	var out []int
	for cpu := 0; cpu < len(s)*64; cpu++ {
		if s.has(cpu) {
			out = append(out, cpu)
		}
	}
	return out
}

func cpuSetOf(cpus []int) cpuSet {
	var s cpuSet
	for _, c := range cpus {
		s.add(c)
	}
	return s
}

// getAffinity reads the calling thread's allowed CPUs.
func getAffinity() (cpuSet, error) {
	var s cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); errno != 0 {
		return s, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return s, nil
}

// setAffinity pins one thread (0 is the calling thread).
func setAffinity(tid int, s cpuSet) error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// setProcessAffinity pins every thread this process has now; threads
// created later inherit the mask of the thread that creates them.
func setProcessAffinity(s cpuSet) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return fmt.Errorf("pin: %w", err)
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may exit between the listing and the call.
		if err := setAffinity(tid, s); err != nil && !errors.Is(err, syscall.ESRCH) {
			return err
		}
	}
	return nil
}

// childCPUs is read by startChild: the mask a new child process gets.
var childCPUs struct {
	set cpuSet
	on  bool
}

// startSpinners starts one idle-priority spinner on each of cpus and
// returns what stops them. A CPU whose spinner cannot start goes without.
func startSpinners(cpus []int) (stop func(), n int) {
	var spinners []*child
	if self, err := os.Executable(); err == nil {
		for _, cpu := range cpus {
			childCPUs.set, childCPUs.on = cpuSetOf([]int{cpu}), true
			c, err := startChild(fmt.Sprintf("spinner-%d", cpu), self, "-spin")
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: no idle spinner on CPU %d: %v\n", cpu, err)
				continue
			}
			spinners = append(spinners, c)
		}
		childCPUs.on = false
	}
	return func() {
		for _, c := range spinners {
			c.kill()
		}
	}, len(spinners)
}

// settleCPUs starts the spinners and, for a socket run (split), pins
// this process to the generator's half, arranges for servers to start
// on the other half, and sizes GOMAXPROCS to the generator's share.
// undo restores all of it. Where the kernel refuses (a sandbox that
// filters the calls), the run goes on unpinned and says so: noisier,
// not wrong.
func settleCPUs(split bool) (undo func(), layout string) {
	all, err := getAffinity()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: running unpinned: %v\n", err)
		return func() {}, "unpinned"
	}
	cpus := all.list()
	stopSpinners, n := startSpinners(cpus)
	if !split {
		return stopSpinners, fmt.Sprintf("%d idle spinners", n)
	}
	if len(cpus) < 2 {
		return stopSpinners, fmt.Sprintf("one CPU, shared; %d idle spinners", n)
	}
	half := len(cpus) / 2
	gen, srv := cpuSetOf(cpus[:half]), cpuSetOf(cpus[half:])
	if err := setProcessAffinity(gen); err != nil {
		fmt.Fprintf(os.Stderr, "bench: running unpinned: %v\n", err)
		return stopSpinners, "unpinned"
	}
	prevProcs := runtime.GOMAXPROCS(half)
	childCPUs.set, childCPUs.on = srv, true
	undo = func() {
		childCPUs.on = false
		runtime.GOMAXPROCS(prevProcs)
		if err := setProcessAffinity(all); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		}
		stopSpinners()
	}
	return undo, fmt.Sprintf("generator on CPUs %v, servers on CPUs %v, %d idle spinners", cpus[:half], cpus[half:], n)
}

// spin is the body of a spinner process: drop to SCHED_IDLE, then burn
// whatever cycles are left over, forever. The parent kills it.
func spin() int {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		// At normal priority a spinner would take cycles from the servers.
		fmt.Fprintf(os.Stderr, "bench: spinner cannot enter SCHED_IDLE: %v\n", errno)
		return exitFailed
	}
	var x uint64 = 88172645463325252
	for {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x == 0 { // never: the xorshift state cannot reach zero
			return 0
		}
	}
}
