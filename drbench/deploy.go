package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
	"repro/pkg/client"
)

// benchTenant is the single non-admin tenant every deployment runs
// with; its token rides on every request the load generator sends.
const (
	benchTenant = "bench"
	benchToken  = "drbench-tenant-token"
)

// deployment is one draid process under test.
type deployment struct {
	dir     string
	flags   []string
	cmd     *exec.Cmd
	base    string
	exited  chan struct{}
	waitErr error
}

// startDraid launches draid as a separate process on a free loopback
// port with a fresh data dir under dir: one worker per core, one
// non-admin tenant, and the workload's extra flags. It returns once
// /healthz answers.
func startDraid(ctx context.Context, draid, dir string, flags []string) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tenants := filepath.Join(dir, "tenants.json")
	b, _ := json.Marshal([]map[string]string{{"id": benchTenant, "token": benchToken}})
	if err := os.WriteFile(tenants, b, 0o600); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-addr", "127.0.0.1:" + strconv.Itoa(port),
		"-workers", strconv.Itoa(runtime.NumCPU()),
		"-data-dir", filepath.Join(dir, "data"),
		"-tenants", tenants,
	}, flags...)
	logf, err := os.OpenFile(filepath.Join(dir, "draid.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(draid, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// If drbench itself dies (SIGKILL, or SIGPIPE on a closed stdout)
	// before it can stop draid, the kernel kills draid too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start draid: %w", err)
	}
	d := &deployment{dir: dir, flags: flags, cmd: cmd, base: "http://127.0.0.1:" + strconv.Itoa(port), exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	liveMu.Lock()
	live[d] = true
	liveMu.Unlock()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("draid exited during start-up: %v (see %s)", d.waitErr, logf.Name())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("draid did not answer /healthz within 20s")
		}
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// live holds every started deployment until it is stopped, so an
// interrupted run can still stop its draid processes.
var (
	liveMu sync.Mutex
	live   = map[*deployment]bool{}
)

// stopAll stops every deployment still running.
func stopAll() {
	liveMu.Lock()
	ds := make([]*deployment, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// stop ends draid gracefully (SIGTERM, then SIGKILL after 10s) and
// waits for the process to exit.
func (d *deployment) stop() {
	defer func() {
		liveMu.Lock()
		delete(live, d)
		liveMu.Unlock()
	}()
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// exitErr is nil when a stopped draid exited with status 0.
func (d *deployment) exitErr() error {
	if d.waitErr != nil {
		return fmt.Errorf("draid did not exit cleanly on SIGTERM: %w", d.waitErr)
	}
	return nil
}

// peakRSSMB reads draid's VmHWM (peak resident set) in MB.
func (d *deployment) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// client returns an SDK client for the bench tenant over hc.
func (d *deployment) client(hc *http.Client) *client.Client {
	return client.New(d.base, client.WithToken(benchToken), client.WithHTTPClient(hc))
}

// newHTTPClient is a load-generator transport capped at conns
// connections to draid.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// scrape reads /metrics and sums every series per family name.
func (d *deployment) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	series, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	out := map[string]float64{}
	for _, s := range series {
		out[s.Name] += s.Value
	}
	return out, nil
}
