package main

// Daemon processes: spawn the shipped binaries on ephemeral ports, learn
// their endpoints from their start-up log, scrape /metrics, read CPU and
// peak RSS from /proc, and kill them on every exit path.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cosm/internal/ref"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

var (
	serveRE   = regexp.MustCompile(`serving at (cosm://\S+)`)
	metricsRE = regexp.MustCompile(`metrics at http://(\S+)/metrics`)
)

// daemonProc is one running daemon process.
type daemonProc struct {
	name    string
	cmd     *exec.Cmd
	ref     ref.ServiceRef
	metrics string // host:port of /metrics
	drained chan struct{}
	tail    *tailBuffer
}

// tailBuffer keeps the last lines a daemon logged, for error reports.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(s string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.lines) == 8 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, s)
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// live tracks every started daemon so that killAll can stop them on any
// exit path, including a signal.
var live struct {
	mu      sync.Mutex
	daemons map[*daemonProc]bool
}

// startDaemon runs bin with args plus -listen and -metrics-addr on
// ephemeral loopback ports and waits until it logs both addresses.
func startDaemon(ctx context.Context, bin, name string, args ...string) (*daemonProc, error) {
	args = append([]string{"-listen", "tcp:127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	// The kernel kills the daemon if the generator dies without cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemonProc{name: name, cmd: cmd, drained: make(chan struct{}), tail: &tailBuffer{}}
	live.mu.Lock()
	if live.daemons == nil {
		live.daemons = map[*daemonProc]bool{}
	}
	live.daemons[d] = true
	live.mu.Unlock()

	ready := make(chan error, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		var refText, metrics string
		for sc.Scan() {
			line := sc.Text()
			d.tail.add(line)
			if m := metricsRE.FindStringSubmatch(line); m != nil {
				metrics = m[1]
			}
			if m := serveRE.FindStringSubmatch(line); m != nil {
				refText = m[1]
			}
			if refText != "" && metrics != "" {
				r, err := ref.Parse(refText)
				if err == nil {
					d.ref, d.metrics = r, metrics
				}
				ready <- err
				break
			}
		}
		// The daemons log every request; keep draining so they never
		// block on a full pipe.
		_, _ = io.Copy(io.Discard, stderr)
		select {
		case ready <- fmt.Errorf("%s exited before it was ready", name):
		default:
		}
	}()
	select {
	case err = <-ready:
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("%s not ready after 30s", name)
	case <-ctx.Done():
		err = ctx.Err()
	}
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("%w\n%s", err, d.tail)
	}
	return d, nil
}

// kill stops the daemon and waits until it has exited.
func (d *daemonProc) kill() {
	_ = d.cmd.Process.Kill() // an already exited process is fine
	<-d.drained
	_ = d.cmd.Wait() // killed: the exit status is expected
	live.mu.Lock()
	delete(live.daemons, d)
	live.mu.Unlock()
}

func killAll() {
	live.mu.Lock()
	ds := make([]*daemonProc, 0, len(live.daemons))
	for d := range live.daemons {
		ds = append(ds, d)
	}
	live.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// procStat is a daemon's CPU time and peak resident set size.
type procStat struct {
	cpu   time.Duration
	hwmKB int64
}

func (d *daemonProc) stat() (procStat, error) {
	return readProc(d.cmd.Process.Pid)
}

func readProc(pid int) (procStat, error) {
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return procStat{}, err
	}
	ticks, err := parseStatCPU(stat)
	if err != nil {
		return procStat{}, err
	}
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return procStat{}, err
	}
	hwm, err := parseStatusKB(status, "VmHWM")
	if err != nil {
		return procStat{}, err
	}
	return procStat{cpu: time.Duration(ticks) * time.Second / clockTicks, hwmKB: hwm}, nil
}

// parseStatCPU returns utime+stime in clock ticks from /proc/<pid>/stat.
// The command name (field 2) may hold spaces and parentheses, so fields
// are counted from the last ')'.
func parseStatCPU(stat []byte) (uint64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return ut + st, nil
}

// parseStatusKB returns a "Key:   N kB" value from /proc/<pid>/status.
func parseStatusKB(status []byte, key string) (int64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || k != key {
			continue
		}
		f := strings.Fields(v)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: %q", key, v)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s", key)
}

// scrape fetches the daemon's /metrics as a series → value map; series
// keep their labels, e.g. `cosm_trader_import_cache_total{outcome="hit"}`.
func (d *daemonProc) scrape(ctx context.Context) (series, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.metrics+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", d.name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", d.name, err)
	}
	return parseMetrics(body)
}

// series is one scrape of Prometheus text exposition.
type series map[string]float64

func parseMetrics(body []byte) (series, error) {
	s := series{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s[line[:i]] += v
	}
	return s, nil
}

// sum adds every series of the family name (all label sets).
func (s series) sum(name string) float64 {
	var t float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// delta returns after − before for every series in after.
func delta(before, after series) series {
	d := series{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
