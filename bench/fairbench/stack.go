package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

	"fairdms/internal/dmsapi"
)

// layout names the directories one fairbench process works in. Everything
// it writes lives under the checkout: binaries and scratch state under
// .bench_build, reports and span files under bench/out.
type layout struct {
	root string // repository checkout (the directory holding the fairdms go.mod)
	bin  string // built daemons
	tmp  string // per-process scratch (WAL directories, daemon logs)
	out  string // reports and span files
}

// findLayout walks up from the working directory to the checkout root.
func findLayout() (layout, error) {
	dir, err := os.Getwd()
	if err != nil {
		return layout{}, err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module fairdms\n")) {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "dmsd")); err == nil {
				break
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return layout{}, errors.New("fairbench: no fairdms checkout (go.mod + cmd/dmsd) above the working directory")
		}
		dir = parent
	}
	l := layout{
		root: dir,
		bin:  filepath.Join(dir, ".bench_build", "bin"),
		tmp:  filepath.Join(dir, ".bench_build", "tmp", strconv.Itoa(os.Getpid())),
		out:  filepath.Join(dir, "bench", "out"),
	}
	for _, d := range []string{l.bin, l.tmp, l.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return layout{}, err
		}
	}
	return l, nil
}

// buildDaemons compiles cmd/dmsd and cmd/dmsrouter from the checkout. The
// go tool decides staleness, so a warm call costs a fraction of a second
// and never runs a stale binary. Build time is outside every metric.
func (l layout) buildDaemons() error {
	cmd := exec.Command("go", "build", "-o", l.bin+string(os.PathSeparator), "./cmd/dmsd", "./cmd/dmsrouter")
	cmd.Dir = l.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("fairbench: building daemons: %v\n%s", err, out)
	}
	return nil
}

// daemon is one child process serving the /v1 surface.
type daemon struct {
	name string
	bin  string
	args []string
	addr string
	cmd  *exec.Cmd
	log  *os.File
	// execAt is when the process was started: the zero of setup_s.
	execAt time.Time
	// cpuTicks and rssPeak (kB) cover the incarnations already reaped.
	cpuTicks int64
	rssPeak  int64
}

// stack owns every process a workload starts, so one deferred stopAll
// leaves nothing running on any path.
type stack struct {
	l       layout
	daemons []*daemon
}

// live tracks running child processes for the signal handler.
var live sync.Map // *exec.Cmd → struct{}

// killLiveDaemons kills and reaps every running child. Only the signal
// handler calls it, on the way out of the process.
func killLiveDaemons() {
	live.Range(func(k, _ any) bool {
		cmd := k.(*exec.Cmd)
		_ = cmd.Process.Kill()
		_ = cmd.Wait() // may race the owner's Wait; either one reaps it
		return true
	})
}

func freeAddr() (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer lis.Close()
	return lis.Addr().String(), nil
}

// start launches bin with -addr on a free port plus args and waits until
// /healthz answers.
func (s *stack) start(name, bin string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{name: name, bin: filepath.Join(s.l.bin, bin), addr: addr, args: args}
	//lint:ignore fsyncrename a daemon's stderr for diagnosis, deleted with the scratch directory when the run ends
	d.log, err = os.Create(filepath.Join(s.l.tmp, name+".log"))
	if err != nil {
		return nil, err
	}
	s.daemons = append(s.daemons, d)
	return d, d.exec()
}

func (d *daemon) exec() error {
	args := append([]string{"-addr", d.addr, "-log-level", "warn"}, d.args...)
	d.cmd = exec.Command(d.bin, args...)
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	d.execAt = time.Now()
	if err := d.cmd.Start(); err != nil {
		d.cmd = nil
		return fmt.Errorf("fairbench: starting %s: %w", d.name, err)
	}
	live.Store(d.cmd, struct{}{})
	return d.waitHealthy(30 * time.Second)
}

// health is one /healthz probe; the router and dmsd share the fields used.
func (d *daemon) health() (dmsapi.HealthResponse, error) {
	var h dmsapi.HealthResponse
	resp, err := http.Get("http://" + d.addr + dmsapi.PathHealth)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

func (d *daemon) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if _, err := d.health(); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("fairbench: %s not healthy after %v: %w", d.name, timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// signalAndWait delivers sig, reaps the process and folds its resource use
// into the daemon's totals. A daemon that ignores a polite signal for 20 s
// is killed.
func (d *daemon) signalAndWait(sig syscall.Signal) {
	if d.cmd == nil {
		return
	}
	ticks, rss := d.procUsage()
	d.cpuTicks += ticks
	d.rssPeak = max(d.rssPeak, rss)
	_ = d.cmd.Process.Signal(sig) // already-exited is fine: Wait below reaps it
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // a signalled exit is the expected outcome
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	live.Delete(d.cmd)
	d.cmd = nil
}

func (d *daemon) stop() { d.signalAndWait(syscall.SIGINT) }
func (d *daemon) kill() { d.signalAndWait(syscall.SIGKILL) }

// procUsage reads the live process's CPU ticks and peak RSS (kB) from
// /proc; zeros when the daemon is not running.
func (d *daemon) procUsage() (ticks, rssKB int64) {
	if d.cmd == nil {
		return 0, 0
	}
	pid := strconv.Itoa(d.cmd.Process.Pid)
	if stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat")); err == nil {
		// utime and stime are the 14th and 15th fields of the line, the
		// 12th and 13th after the parenthesised command name.
		if i := bytes.LastIndexByte(stat, ')'); i >= 0 {
			if f := strings.Fields(string(stat[i+1:])); len(f) > 12 {
				u, _ := strconv.ParseInt(f[11], 10, 64)
				s, _ := strconv.ParseInt(f[12], 10, 64)
				ticks = u + s
			}
		}
	}
	if status, err := os.ReadFile(filepath.Join("/proc", pid, "status")); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				rssKB, _ = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			}
		}
	}
	return ticks, rssKB
}

// stopAll ends every daemon still running (SIGINT, then wait).
func (s *stack) stopAll() {
	for _, d := range s.daemons {
		d.stop()
		d.log.Close()
	}
}

// procTotals sums CPU milliseconds and the largest peak RSS over the
// stack's daemons. USER_HZ is 100 on every Linux ABI Go supports.
func (s *stack) procTotals() (cpuMS float64, rssPeakMB float64) {
	for _, d := range s.daemons {
		ticks, rss := d.procUsage()
		cpuMS += float64(d.cpuTicks+ticks) * 10
		rssPeakMB = max(rssPeakMB, float64(max(d.rssPeak, rss))/1024)
	}
	return cpuMS, rssPeakMB
}

// newClient builds the benchmark's one client: one pooled connection, so
// requests are serialised on a single keep-alive stream.
func newClient(addr string) (*dmsapi.Client, error) {
	return dmsapi.NewClient(addr, dmsapi.WithPool(1))
}
