package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one server child process.
type proc struct {
	name string
	port int
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once the process has been reaped
}

// procs owns every child of the run; stopAll kills and reaps them all. It
// runs on every exit path, including failures and signals.
type procs struct {
	mu   sync.Mutex
	list []*proc
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (ps *procs) start(bin, name, logDir string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args = append(args, "-addr", fmt.Sprintf("127.0.0.1:%d", port))
	logPath := filepath.Join(logDir, name+".log")
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	// Children die with the benchmark even if it is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, port: port, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		f.Close()
		close(p.done)
	}()
	ps.list = append(ps.list, p)
	return p, nil
}

func (p *proc) url() string { return fmt.Sprintf("http://127.0.0.1:%d", p.port) }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// logTail returns the end of the process's output, for error messages.
func (p *proc) logTail() string {
	raw, _ := os.ReadFile(p.log)
	if len(raw) > 800 {
		raw = raw[len(raw)-800:]
	}
	return strings.TrimSpace(string(raw))
}

func (ps *procs) stopAll() {
	ps.mu.Lock()
	list := ps.list
	ps.list = nil
	ps.mu.Unlock()
	for _, p := range list {
		_ = p.cmd.Process.Kill()
	}
	for _, p := range list {
		<-p.done
	}
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(ctx context.Context, p *proc) error {
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(p.url() + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if p.exited() {
			return fmt.Errorf("%s exited during boot: %s", p.name, p.logTail())
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w", p.name, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux platform Go supports.
const clockTick = 100

// cpuTime reads a process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// hostTicks reads the machine-wide busy and stolen CPU ticks from
// /proc/stat. Steal is time the hypervisor gave this machine's CPUs to
// another guest; it explains runs that are slow for no reason of their own.
func hostTicks() (busy, steal int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat")
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return 0, 0, err
		}
	}
	// user nice system idle iowait irq softirq steal
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], nil
}

// peakRSS reads VmHWM, the process's peak resident set, in bytes.
func peakRSS(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
