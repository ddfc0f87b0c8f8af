package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
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

	"querylearn/internal/obs"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 for user space on every architecture Go supports.
const clockTicks = 100

// daemon is one querylearnd process the benchmark started. The benchmark
// never reaches into the daemon's memory: everything it learns about the
// process comes from HTTP (/healthz, /metrics), its stderr (the slow-request
// log) and /proc.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	dataDir string
	booted  time.Duration // exec to the first /healthz 200

	stderrDone chan struct{}
	mu         sync.Mutex
	logTail    []string     // last stderr lines that are not slow-log records
	slow       []slowRecord // parsed slow-request log records (traced runs)
}

// slowRecord is one line of the daemon's slow-request log: the server-side
// view of one request, keyed by the X-Request-Id the client sent.
type slowRecord struct {
	RequestID string  `json:"request_id"`
	Endpoint  string  `json:"endpoint"`
	Status    int     `json:"status"`
	Duration  float64 `json:"duration_seconds"`
	Phases    []struct {
		Name    string  `json:"name"`
		Seconds float64 `json:"seconds"`
	} `json:"phases"`
}

// daemonOpts are the flags a workload starts querylearnd with. Every daemon
// is durable (-data-dir, -fsync batched); a traced daemon logs every request
// with its phase breakdown.
type daemonOpts struct {
	dataDir string
	traced  bool
	// unlimited lifts the live-session cap, for corpora larger than the
	// daemon's default of 10000 sessions.
	unlimited bool
}

func (o daemonOpts) args(addr string) []string {
	args := []string{"-addr", addr, "-data-dir", o.dataDir, "-fsync", "batched"}
	if o.unlimited {
		args = append(args, "-max-sessions", "0")
	}
	if o.traced {
		args = append(args, "-slow-log-threshold", "1ns", "-slow-log-every", "1")
	}
	return args
}

// freeAddr picks a loopback port. The listen-then-close gap is a race only
// with other processes binding loopback ports in the same instant.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// startDaemon execs querylearnd and waits for /healthz to answer 200; the
// elapsed time is the boot time users see. On any error the process is
// killed and reaped before returning.
func startDaemon(bin string, o daemonOpts) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + addr, dataDir: o.dataDir, stderrDone: make(chan struct{})}
	d.cmd = exec.Command(bin, o.args(addr)...)
	// A benchmark killed from outside must not leave a daemon behind.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go d.readStderr(stderr, o.traced)
	if err := waitHealthy(d.base, 30*time.Second); err != nil {
		d.kill()
		return nil, fmt.Errorf("daemon did not become healthy: %w (stderr: %s)", err, d.stderrTail())
	}
	d.booted = time.Since(start)
	return d, nil
}

// healthClient polls /healthz on fresh connections with a short timeout.
var healthClient = &http.Client{
	Timeout:   time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

func waitHealthy(base string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := healthClient.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// readStderr drains the daemon's stderr until it exits. Slow-log records
// are kept for the trace join; other lines only as a tail for diagnostics.
func (d *daemon) readStderr(r io.Reader, traced bool) {
	defer close(d.stderrDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if traced && bytes.Contains(line, []byte(`"msg":"slow request"`)) {
			var rec slowRecord
			if json.Unmarshal(line, &rec) == nil {
				d.mu.Lock()
				d.slow = append(d.slow, rec)
				d.mu.Unlock()
				continue
			}
		}
		d.mu.Lock()
		d.logTail = append(d.logTail, string(line))
		if len(d.logTail) > 20 {
			d.logTail = d.logTail[len(d.logTail)-20:]
		}
		d.mu.Unlock()
	}
	io.Copy(io.Discard, r)
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.logTail, " | ")
}

// slowLog returns the slow-request records received so far.
func (d *daemon) slowLog() []slowRecord {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]slowRecord(nil), d.slow...)
}

// kill SIGKILLs the daemon and reaps it — a crash, as far as the journal is
// concerned. Safe to call more than once.
func (d *daemon) kill() {
	if d.cmd.ProcessState != nil {
		return
	}
	_ = d.cmd.Process.Kill() // an already-exited process is reaped by Wait below
	_ = d.cmd.Wait()         // the exit status of a killed process carries no information
	<-d.stderrDone
}

// cpu reads the daemon's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after the
	// closing parenthesis are space-separated, utime and stime being the
	// 14th and 15th fields of the whole line.
	s := string(data)
	rest := s[strings.LastIndexByte(s, ')')+2:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS reads a process's high-water resident set size in MB.
func peakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape fetches the daemon's Prometheus exposition.
func (d *daemon) scrape() (*obs.Exposition, error) {
	resp, err := healthClient.Get(d.base + "/metrics?format=prometheus")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: HTTP %d", resp.StatusCode)
	}
	return obs.ParseExposition(resp.Body)
}

// usage is the daemon's resource reading at one instant.
type usage struct {
	cpu  time.Duration
	exp  *obs.Exposition
	peak float64
}

func (d *daemon) usage() (usage, error) {
	var u usage
	var err error
	if u.cpu, err = d.cpu(); err != nil {
		return u, err
	}
	if u.exp, err = d.scrape(); err != nil {
		return u, err
	}
	u.peak, err = peakRSS(d.cmd.Process.Pid)
	return u, err
}

// bootSeries boots the daemon reps times, each on a fresh data directory
// prepared by prep, and returns the boot times, the peak RSS of each daemon
// but the last, and the last daemon, still running. Earlier daemons are
// killed as soon as they are healthy.
func bootSeries(bin, dir string, reps int, o daemonOpts, prep func(dataDir string) error) (last *daemon, boots, peaks *samples, err error) {
	boots, peaks = &samples{}, &samples{}
	for i := 0; i < reps; i++ {
		o.dataDir = filepath.Join(dir, fmt.Sprintf("data-%d", i))
		if err := os.RemoveAll(o.dataDir); err != nil {
			return nil, nil, nil, err
		}
		if prep != nil {
			if err := prep(o.dataDir); err != nil {
				return nil, nil, nil, err
			}
		}
		d, err := startDaemon(bin, o)
		if err != nil {
			return nil, nil, nil, err
		}
		boots.add(d.booted.Seconds())
		if i == reps-1 {
			return d, boots, peaks, nil
		}
		peak, err := peakRSS(d.cmd.Process.Pid)
		d.kill()
		if err != nil {
			return nil, nil, nil, err
		}
		peaks.add(peak)
		if err := os.RemoveAll(o.dataDir); err != nil {
			return nil, nil, nil, err
		}
	}
	return nil, nil, nil, fmt.Errorf("bootSeries needs reps >= 1, got %d", reps)
}
