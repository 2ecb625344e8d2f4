package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemonFlags are the flags the benchmark passes to hideseekd: its
// defaults, except that tracing is off and the listener takes a free
// loopback port.
var daemonFlags = []string{"-addr", "127.0.0.1:0", "-traces", "0"}

// daemon is one running hideseekd process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan error
}

// startDaemon execs the binary and returns once /healthz answers 200,
// with the time from exec to that answer.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, daemonFlags...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start hideseekd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	addrc := make(chan string, 1)
	go func() {
		// The daemon logs its bound address; keep draining stderr after
		// that so it never blocks on a full pipe.
		sc := bufio.NewScanner(stderr)
		const marker = "listening on http://"
		for sc.Scan() {
			if i := strings.Index(sc.Text(), marker); i >= 0 {
				select {
				case addrc <- sc.Text()[i+len(marker):]:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		d.exited <- cmd.Wait()
	}()
	select {
	case d.addr = <-addrc:
	case err := <-d.exited:
		return nil, 0, fmt.Errorf("hideseekd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("hideseekd did not report its address")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := client.Get("http://" + d.addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return d, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("hideseekd /healthz never answered 200 (last error %v)", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// startDaemonRepeated starts the daemon n times and keeps the last one
// running; it returns every start's set-up time.
func startDaemonRepeated(bin string, n int) (*daemon, []float64, error) {
	runtime.GC() // no collection of input set-up garbage competes with the starts
	var setups []float64
	for i := range n {
		d, took, err := startDaemon(bin)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
		if i == n-1 {
			return d, setups, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, fmt.Errorf("no daemon start requested")
}

// peakRSSMB reads the daemon's VmHWM from /proc.
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(d.cmd.Process.Pid)
}

// vmHWM returns a process's peak resident set in MiB.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// stop asks the daemon to shut down gracefully and waits for it to exit,
// killing it if it does not within the grace period.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("hideseekd exit: %w", err)
		}
		return nil
	case <-ctx.Done():
		_ = d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("hideseekd ignored SIGTERM for 15s")
	}
}
