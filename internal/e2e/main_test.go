// Package e2e drives the deployed binaries as processes: dmsd on a WAL,
// three dmsd shards behind dmsrouter, and the paper's three tiers (dstore
// ← dmsd -store ← the fairdms workflow client). It reads every surface
// through the product's own client (dmsapi.Client) and exposition parser
// (obs.ParseExposition).
//
// TestMain builds dmsd, dmsrouter, dstore, fairdms and dmstop once into a
// temporary directory. Every daemon binds 127.0.0.1:0 and the tests read
// the address it bound from its log, so concurrent test binaries never
// race for a port. A test's processes are killed and reaped when it ends,
// and their logs are printed when it failed.
package e2e

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"testing"
	"time"

	"fairdms/internal/dmsapi"
	"fairdms/internal/obs"
)

// binDir holds the binaries TestMain built.
var binDir string

func TestMain(m *testing.M) {
	os.Exit(buildAndRun(m))
}

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "fairdms-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"fairdms/cmd/dmsd", "fairdms/cmd/dmsrouter", "fairdms/cmd/dstore", "fairdms/cmd/fairdms", "fairdms/cmd/dmstop")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: building the binaries: %v\n%s", err, out)
		return 1
	}
	binDir = dir
	return m.Run()
}

// waitFor bounds every wait on a process: a start, an exit, a client run.
const waitFor = 60 * time.Second

// logBuf is a process's combined stdout and stderr.
type logBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// proc is one started binary.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *logBuf
	addr string        // the address a daemon bound (see listen)
	done chan struct{} // closed once the process is reaped
	err  error         // Wait's result, set before done closes
}

// launch starts binary name with args. At the test's end the process is
// killed and reaped, and its log is printed if the test failed.
func launch(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	p := &proc{name: name, log: &logBuf{}, done: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(binDir, name), args...)
	p.cmd.Stdout = p.log
	p.cmd.Stderr = p.log
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		p.kill()
		if t.Failed() {
			t.Logf("%s %q log:\n%s", name, args, p.log)
		}
	})
	return p
}

// servingRE matches the line each daemon logs once it listens: dmsd's and
// dmsrouter's "msg=serving … addr=<addr>", dstore's "serving on <addr>".
var servingRE = regexp.MustCompile(`(?:msg=serving .*\baddr=|serving on )(\S+)`)

// listen starts a daemon on 127.0.0.1:0 and returns it once it has
// logged the address it bound.
func listen(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	p := launch(t, name, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	deadline := time.After(waitFor)
	for {
		if m := servingRE.FindStringSubmatch(p.log.String()); m != nil {
			p.addr = m[1]
			return p
		}
		select {
		case <-p.done:
			t.Fatalf("%s exited before it listened (%v):\n%s", name, p.err, p.log)
		case <-deadline:
			t.Fatalf("%s did not listen within %v:\n%s", name, waitFor, p.log)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// serve starts dmsd or dmsrouter and waits until /healthz answers 200: a
// router's health fans out, so it is up once every shard answers. It
// returns a client for the daemon.
func serve(t *testing.T, name string, args ...string) (*proc, *dmsapi.Client) {
	t.Helper()
	p := listen(t, name, args...)
	c, err := dmsapi.NewClient(p.addr, dmsapi.WithoutPing())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	deadline := time.Now().Add(waitFor)
	for {
		_, err := c.Health()
		if err == nil {
			return p, c
		}
		select {
		case <-p.done:
			t.Fatalf("%s exited before /healthz answered (%v):\n%s", name, p.err, p.log)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: /healthz did not answer within %v: %v", name, waitFor, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits until the process is reaped.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // fails only for a process that already exited, which done reaps
	<-p.done
}

// stop sends SIGTERM and fails the test unless the process exits 0.
func (p *proc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signalling %s: %v", p.name, err)
	}
	select {
	case <-p.done:
		if p.err != nil {
			t.Fatalf("%s exited with %v after SIGTERM", p.name, p.err)
		}
	case <-time.After(waitFor):
		t.Fatalf("%s did not exit within %v of SIGTERM", p.name, waitFor)
	}
}

// exited waits for a process to exit on its own and returns its error.
func (p *proc) exited(t *testing.T) error {
	t.Helper()
	select {
	case <-p.done:
		return p.err
	case <-time.After(waitFor):
		t.Fatalf("%s still running after %v", p.name, waitFor)
		return nil
	}
}

// run runs a binary to completion and fails the test unless it exits 0.
// It returns the combined output.
func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	out, err := runErr(name, args...)
	if err != nil {
		t.Fatalf("%s %q: %v\n%s", name, args, err, out)
	}
	return out
}

// runErr is run for callers off the test goroutine.
func runErr(name string, args ...string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), waitFor)
	defer cancel()
	out, err := exec.CommandContext(ctx, filepath.Join(binDir, name), args...).CombinedOutput()
	return string(out), err
}

// metrics scrapes /metricsz and returns its families by name.
func metrics(t *testing.T, c *dmsapi.Client) map[string]obs.Family {
	t.Helper()
	raw, err := c.DoRaw(context.Background(), "GET", dmsapi.PathMetrics, nil)
	if err != nil {
		t.Fatalf("GET %s: %v", dmsapi.PathMetrics, err)
	}
	fams, err := obs.ParseExposition(raw)
	if err != nil {
		t.Fatalf("%s is not well-formed exposition: %v\n%s", dmsapi.PathMetrics, err, raw)
	}
	byName := make(map[string]obs.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	return byName
}

// value returns the value of family name's one sample whose labels are
// exactly want (key, value pairs in exposition order); ok is false when
// there is no such sample.
func value(fams map[string]obs.Family, name string, want ...string) (v float64, ok bool) {
next:
	for _, s := range fams[name].Samples {
		if s.Suffix != "" || len(s.Labels) != len(want)/2 {
			continue
		}
		for i, l := range s.Labels {
			if l.Key != want[2*i] || l.Value != want[2*i+1] {
				continue next
			}
		}
		return s.Value, true
	}
	return 0, false
}

// wantType fails the test unless each named family is declared with typ.
func wantType(t *testing.T, fams map[string]obs.Family, typ string, names ...string) {
	t.Helper()
	for _, name := range names {
		if got := fams[name].Type; got != typ {
			t.Errorf("%s: family %s has type %q, want %q", dmsapi.PathMetrics, name, got, typ)
		}
	}
}

// wantValue fails the test unless family name's sample with labels want
// reads v.
func wantValue(t *testing.T, fams map[string]obs.Family, v float64, name string, want ...string) {
	t.Helper()
	if got, ok := value(fams, name, want...); !ok || got != v {
		t.Errorf("%s: %s%q = %v (present %v), want %v", dmsapi.PathMetrics, name, want, got, ok, v)
	}
}
