package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProcs is the GOMAXPROCS every server process is pinned to.
const serverProcs = 2

// clockTicks is the kernel's USER_HZ, the unit of /proc CPU times
// (100 on every Linux build the benchmark targets).
const clockTicks = 100

// server is one running `neurofail serve` process on a fresh store.
type server struct {
	cmd  *exec.Cmd
	base string

	logMu sync.Mutex
	log   bytes.Buffer
	done  chan struct{} // closed once stderr is drained
}

// startServer launches the binary on dir (which must not exist yet) with
// a loopback port of its choosing and waits until it listens. workers
// sizes its engine pool and jobWorkers its job tier.
func startServer(bin, dir string, workers, jobWorkers int) (*server, error) {
	if _, err := os.Stat(dir); err == nil {
		return nil, fmt.Errorf("store %s already exists; every run needs a fresh store", dir)
	}
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-store", dir,
		"-workers", strconv.Itoa(workers), "-job-workers", strconv.Itoa(jobWorkers))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
	// If the benchmark itself dies, the kernel takes the server down too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			s.logMu.Lock()
			s.log.WriteString(line + "\n")
			s.logMu.Unlock()
			if a, ok := strings.CutPrefix(line, "neurofail: listening on "); ok && !sent {
				addr <- strings.TrimSpace(a)
				sent = true
			}
		}
		io.Copy(io.Discard, stderr) //nolint:errcheck // draining a pipe of a process that is exiting
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.done:
		err := s.cmd.Wait()
		return nil, fmt.Errorf("server exited before listening (%v): %s", err, s.stderr())
	case <-time.After(30 * time.Second):
		s.stop() //nolint:errcheck // already failing
		return nil, fmt.Errorf("server did not listen within 30s")
	}
}

func (s *server) stderr() string {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return strings.TrimSpace(s.log.String())
}

// rssMiB reads the process's current resident set (VmRSS).
func (s *server) rssMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmRSS %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc status")
}

// rssSampler reads the server's resident set at a fixed interval. The
// median of the samples repeats from run to run where the peak, set by
// when the garbage collector happened to run, does not.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

// sampleRSS starts sampling every 50ms until finish.
func (s *server) sampleRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			if v, err := s.rssMiB(); err == nil {
				r.samples = append(r.samples, v)
			}
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// finish stops the sampler and returns its samples.
func (r *rssSampler) finish() []float64 {
	close(r.stop)
	<-r.done
	return r.samples
}

// cpuSeconds reads the process's user plus system CPU time.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it do not.
	f := strings.Fields(string(data[strings.LastIndexByte(string(data), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", data)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc stat times %q %q", f[11], f[12])
	}
	return (utime + stime) / clockTicks, nil
}

// stop asks the server to drain (SIGTERM), waits for it to exit and
// falls back to SIGKILL after 20s. A graceful exit must be code 0.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an already-exited process is handled by Wait
	// stderr reaches EOF when the process exits; Wait must come after
	// the last read of the pipe.
	var err error
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // Wait below reports the outcome
		<-s.done
		err = fmt.Errorf("server ignored SIGTERM for 20s")
	}
	if werr := s.cmd.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		return fmt.Errorf("server exit: %v: %s", err, s.stderr())
	}
	return nil
}

// client is one keep-alive HTTP connection to the server: every
// workload uses at most two, so the load shape is the same everywhere.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

// do sends one request and returns the status and the whole body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }
