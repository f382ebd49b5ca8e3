package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// errInvalidRun marks a run whose numbers must not be used: the
// generator was the bottleneck, or a server process misbehaved. main
// maps it to its own exit code and prints no metrics.
var errInvalidRun = errors.New("invalid run")

func invalidf(format string, a ...any) error {
	return fmt.Errorf("%w: %s", errInvalidRun, fmt.Sprintf(format, a...))
}

// repoRoot walks up from the working directory to the directory holding
// the server commands (the module the harness measures).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "senseaidd")); err == nil && st.IsDir() {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/senseaidd above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// buildServers compiles senseaidd and senseaid-router from the checkout
// the harness runs in and returns the directory holding them. The build
// is not part of any measurement. It always runs: the go build cache
// makes an unchanged tree cheap, and a stale binary would measure the
// wrong code.
func buildServers(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", fmt.Errorf("build servers: %w", err)
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/senseaidd", "./cmd/senseaid-router")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build servers: %w\n%s", err, out)
	}
	return bin, nil
}

// scratchDir makes a fresh directory for state files under the
// harness's own output directory (never outside the checkout).
func scratchDir(root, label string) (string, error) {
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, label+"-")
}

// child is one spawned server process. Its stdout is scanned for the
// start-up lines the harness waits on; its stderr is scanned for the
// signatures of a crash.
type child struct {
	name string
	cmd  *exec.Cmd
	pid  int

	mu     sync.Mutex
	lines  []string // stdout so far
	bad    string   // first alarming stderr line
	notify chan struct{}

	started chan error    // Start's result
	exited  chan struct{} // closed once Wait returned
	wanted  bool          // the harness asked it to stop
	readers sync.WaitGroup
}

// children tracks every live child so that every exit path, including a
// signal, can kill them.
var children struct {
	mu   sync.Mutex
	list []*child
}

// startChild launches bin with args in its own process group.
//
// Pdeathsig makes the kernel kill the child if the harness dies without
// cleaning up (a SIGKILL from a timeout). The signal is tied to the
// thread that forked, so the fork and the wait share one locked thread.
// That thread also carries the servers' CPU mask across the fork (see
// affinity.go); it is never unlocked, so it dies with the goroutine
// instead of returning to the runtime with a foreign mask.
func startChild(name, bin string, args ...string) (*child, error) {
	c := &child{
		name:    name,
		cmd:     exec.Command(bin, args...),
		notify:  make(chan struct{}, 1),
		started: make(chan error, 1),
		exited:  make(chan struct{}),
	}
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	go func() {
		runtime.LockOSThread()
		if childCPUs.on {
			if err := setAffinity(0, childCPUs.set); err != nil {
				c.started <- err
				close(c.exited)
				return
			}
		}
		if err := c.cmd.Start(); err != nil {
			c.started <- err
			close(c.exited)
			return
		}
		c.pid = c.cmd.Process.Pid
		c.readers.Add(2)
		go c.scan(stdout, false)
		go c.scan(stderr, true)
		c.started <- nil
		c.readers.Wait() // Wait closes the pipes, so drain them first
		_ = c.cmd.Wait()
		close(c.exited)
		c.wake()
	}()
	if err := <-c.started; err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	children.mu.Lock()
	children.list = append(children.list, c)
	children.mu.Unlock()
	return c, nil
}

func (c *child) wake() {
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

func (c *child) scan(r io.Reader, isErr bool) {
	defer c.readers.Done()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		c.mu.Lock()
		if isErr {
			if c.bad == "" && alarming(line) {
				c.bad = line
			}
		} else {
			c.lines = append(c.lines, line)
		}
		c.mu.Unlock()
		c.wake()
	}
}

// alarming reports whether a stderr line is the signature of a crashed
// or racing server.
func alarming(line string) bool {
	return strings.Contains(line, "panic:") || strings.Contains(line, "DATA RACE") ||
		strings.Contains(line, "fatal error:")
}

// waitLine blocks until a stdout line containing substr has appeared
// and returns it.
func (c *child) waitLine(substr string, timeout time.Duration) (string, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	seen := 0
	find := func() (string, bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for ; seen < len(c.lines); seen++ {
			if strings.Contains(c.lines[seen], substr) {
				return c.lines[seen], true
			}
		}
		return "", false
	}
	for {
		if line, ok := find(); ok {
			return line, nil
		}
		select {
		case <-c.exited:
			// The scanners finished before exited closed; look once more.
			if line, ok := find(); ok {
				return line, nil
			}
			return "", invalidf("%s exited before printing %q", c.name, substr)
		case <-c.notify:
		case <-deadline.C:
			return "", invalidf("%s did not print %q within %v", c.name, substr, timeout)
		}
	}
}

// health returns an invalid-run error if the child crashed, raced, or
// exited without being asked to.
func (c *child) health() error {
	c.mu.Lock()
	bad, wanted := c.bad, c.wanted
	c.mu.Unlock()
	if bad != "" {
		return invalidf("%s stderr: %s", c.name, bad)
	}
	if !wanted {
		select {
		case <-c.exited:
			return invalidf("%s exited early", c.name)
		default:
		}
	}
	return nil
}

// kill SIGKILLs the child's whole process group and waits until it has
// been reaped.
func (c *child) kill() {
	c.mu.Lock()
	c.wanted = true
	c.mu.Unlock()
	_ = syscall.Kill(-c.pid, syscall.SIGKILL)
	<-c.exited
	children.mu.Lock()
	for i, o := range children.list {
		if o == c {
			children.list = append(children.list[:i], children.list[i+1:]...)
			break
		}
	}
	children.mu.Unlock()
}

// killAllChildren is the last-resort cleanup for every exit path.
func killAllChildren() {
	children.mu.Lock()
	list := append([]*child(nil), children.list...)
	children.mu.Unlock()
	for _, c := range list {
		c.kill()
	}
}

// listenAddr extracts host:port from a "... listening on <addr>" line.
func listenAddr(line string) (string, error) {
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		return "", fmt.Errorf("no address in %q", line)
	}
	return strings.TrimSpace(line[i+len(marker):]), nil
}

// adminURL extracts the base URL from "admin endpoint on http://<addr>/metrics".
func adminURL(line string) (string, error) {
	i := strings.Index(line, "http://")
	if i < 0 {
		return "", fmt.Errorf("no admin URL in %q", line)
	}
	return strings.TrimSuffix(strings.TrimSpace(line[i:]), "/metrics"), nil
}
