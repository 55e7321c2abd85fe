package main

import (
	"crypto/sha256"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo is the host block every result carries: results are only
// comparable between runs whose host block and in-run baselines agree.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	DataDirFS  string `json:"data_dir_fs"`
}

func readHost(dataDir string) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		DataDirFS:  fsType(dataDir),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// fsType finds the filesystem type of the mount holding dir.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > len(best) {
			best, typ = mnt, f[2]
		}
	}
	return typ
}

// cpuTicks reads the host's total and steal CPU ticks from /proc/stat.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	f := strings.Fields(line)
	for i, v := range f[1:min(len(f), 9)] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			continue
		}
		total += x
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}

// cpuBaselineMS times a single-threaded SHA-256 over 64 MiB: a fixed
// CPU job whose drift across a run shows host contention.
func cpuBaselineMS() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	t0 := time.Now()
	h := sha256.New()
	for i := 0; i < 64; i++ {
		h.Write(buf)
	}
	h.Sum(nil)
	return ms(time.Since(t0))
}

// fsyncP50US is the median latency of a 4 KiB write plus fsync in dir,
// the data dir's filesystem.
func fsyncP50US(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	page := make([]byte, 4096)
	var xs []float64
	for i := 0; i < 32; i++ {
		t0 := time.Now()
		if _, err := f.Write(page); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(xs), nil
}

// loopbackMBps is the TCP loopback rate for one 64 MiB transfer: the
// ceiling any streamed epoch rate sits under.
func loopbackMBps() (float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	const total = 64 << 20
	errc := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 256<<10)
		for sent := 0; sent < total; sent += len(buf) {
			if _, err := c.Write(buf); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	t0 := time.Now()
	n, err := io.CopyN(io.Discard, c, total)
	d := time.Since(t0)
	if werr := <-errc; err == nil {
		err = werr
	}
	if err != nil {
		return 0, err
	}
	return mbps(n, d), nil
}
