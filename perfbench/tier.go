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
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// Fixed loopback addresses. The coordinator's ring hashes replica URLs, so
// different ports would split the same routed work differently between
// replicas; keeping them fixed keeps every run's split identical.
const (
	coordinatorAddr  = "127.0.0.1:18470"
	firstReplicaPort = 18471
)

// replicaAddr is the listen address of replica i.
func replicaAddr(i int) string { return "127.0.0.1:" + strconv.Itoa(firstReplicaPort+i) }

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux platform Go supports.
const clockTicks = 100

// proc is one started cedar-serve child.
type proc struct {
	name   string
	addr   string
	cmd    *exec.Cmd
	exited chan struct{}
	log    string
}

// tier is one booted topology: its processes, and the URL clients target.
type tier struct {
	procs []*proc
	url   string
}

// bootTier starts the workload's topology from bin and returns once every
// process answers readiness, with the time from the first exec to then.
// On error every started process has been stopped.
func bootTier(ctx context.Context, bin, logDir string, w *workload) (*tier, time.Duration, error) {
	t := &tier{}
	start := time.Now()
	var replicaURLs []string
	for i := 0; i < w.replicas; i++ {
		addr := replicaAddr(i)
		args := append(csvArgs(w), "-addr", addr)
		if w.route {
			args = append(args, "-route")
		}
		if err := t.start(bin, logDir, fmt.Sprintf("replica%d", i), addr, args); err != nil {
			t.stop()
			return nil, 0, err
		}
		replicaURLs = append(replicaURLs, "http://"+addr)
	}
	// Replicas first: a coordinator probing replicas that are still
	// profiling would eject them and rehash mid-run.
	for _, p := range t.procs {
		if err := p.awaitReady(ctx, 0); err != nil {
			t.stop()
			return nil, 0, err
		}
	}
	t.url = replicaURLs[0]
	if w.coordinator {
		args := append(csvArgs(w), "-addr", coordinatorAddr, "-coordinator", "-replicas", strings.Join(replicaURLs, ","))
		if w.route {
			args = append(args, "-route")
		}
		if err := t.start(bin, logDir, "coordinator", coordinatorAddr, args); err != nil {
			t.stop()
			return nil, 0, err
		}
		if err := t.procs[len(t.procs)-1].awaitReady(ctx, len(replicaURLs)); err != nil {
			t.stop()
			return nil, 0, err
		}
		t.url = "http://" + coordinatorAddr
	}
	return t, time.Since(start), nil
}

// csvArgs lists the workload's tables as -csv flags.
func csvArgs(w *workload) []string {
	var args []string
	for _, p := range w.csvs {
		args = append(args, "-csv", p)
	}
	return args
}

// start execs one child after checking that its port is free: a process
// left over from an aborted run would otherwise keep answering readiness
// while the new child dies on bind.
func (t *tier) start(bin, logDir, name, addr string, args []string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("%s: address %s is taken (is a cedar-serve from an earlier run still alive?): %w", name, addr, err)
	}
	ln.Close()
	logPath := filepath.Join(logDir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	p := &proc{name: name, addr: addr, cmd: cmd, exited: make(chan struct{}), log: logPath}
	go func() {
		_ = cmd.Wait() // exit status is reported through readiness and stop
		close(p.exited)
	}()
	t.procs = append(t.procs, p)
	return nil
}

// awaitReady polls GET /healthz until it answers 200 while this child is
// still alive. A coordinator is ready only once all its replicas are in
// the ring (wantReplicas > 0).
func (p *proc) awaitReady(ctx context.Context, wantReplicas int) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited during start-up; log:\n%s", p.name, tailFile(p.log))
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if httpOK(client, "http://"+p.addr+"/healthz") && (wantReplicas == 0 || replicasHealthy(client, p.addr) == wantReplicas) {
			select {
			case <-p.exited:
				return fmt.Errorf("%s exited during start-up; log:\n%s", p.name, tailFile(p.log))
			default:
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 2m; log:\n%s", p.name, tailFile(p.log))
}

func httpOK(client *http.Client, url string) bool {
	resp, err := client.Get(url)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// replicasHealthy counts the healthy replicas a coordinator reports.
func replicasHealthy(client *http.Client, addr string) int {
	var st serve.StatusResponse
	if err := getJSON(client, "http://"+addr+"/v1/status", &st); err != nil {
		return 0
	}
	n := 0
	for _, r := range st.Replicas {
		if r.Healthy {
			n++
		}
	}
	return n
}

func getJSON(client *http.Client, url string, dst any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// stop kills every child and waits for each to exit. Safe to call twice.
func (t *tier) stop() {
	for _, p := range t.procs {
		_ = p.cmd.Process.Kill() // fails only if it already exited
		<-p.exited
	}
	t.procs = nil
}

// alive reports an error naming the first child that has exited.
func (t *tier) alive() error {
	for _, p := range t.procs {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited; log:\n%s", p.name, tailFile(p.log))
		default:
		}
	}
	return nil
}

// replicas returns the verifying processes (everything but a coordinator).
func (t *tier) replicas() []*proc {
	var out []*proc
	for _, p := range t.procs {
		if p.name != "coordinator" {
			out = append(out, p)
		}
	}
	return out
}

// cpuTime sums user+system CPU of all children from /proc/<pid>/stat.
func (t *tier) cpuTime() (time.Duration, error) {
	var total time.Duration
	for _, p := range t.procs {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name, which may hold spaces.
		s := string(raw)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) < 13 {
			return 0, fmt.Errorf("short /proc stat for %s", p.name)
		}
		// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
		for _, f := range fields[11:13] {
			ticks, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return 0, err
			}
			total += time.Duration(ticks) * time.Second / clockTicks
		}
	}
	return total, nil
}

// peakRSS sums VmHWM over all children, in MiB.
func (t *tier) peakRSS() (float64, error) {
	var kib int64
	for _, p := range t.procs {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				if err != nil {
					return 0, err
				}
				kib += n
				found = true
			}
		}
		if !found {
			return 0, errors.New("no VmHWM in /proc status of " + p.name)
		}
	}
	return float64(kib) / 1024, nil
}

// replicaMetrics fetches every replica's /v1/metrics.
func (t *tier) replicaMetrics(client *http.Client) ([]serve.MetricsResponse, error) {
	var out []serve.MetricsResponse
	for _, p := range t.replicas() {
		var m serve.MetricsResponse
		if err := getJSON(client, "http://"+p.addr+"/v1/metrics", &m); err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// tailFile returns the last lines of a log for error messages.
func tailFile(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "(no log: " + err.Error() + ")"
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}
