package main

import (
	"bytes"
	"context"
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
	"syscall"
	"time"
)

// serverProcs is GOMAXPROCS of the briq-server under test. The client side
// sets the same bound on itself.
const serverProcs = 2

// server is one running briq-server process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *bytes.Buffer
	exited chan struct{}
	err    error // process exit status, valid once exited is closed
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

// startServer boots briq-server on a model bundle and store directory with
// the default cache, and returns once /v1/healthz answers. The duration is
// process start to first healthy answer: model load plus store replay.
func startServer(bin, model, storeDir string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("pick port: %w", err)
	}
	s := &server{
		base:   "http://127.0.0.1:" + strconv.Itoa(port),
		stderr: &bytes.Buffer{},
		exited: make(chan struct{}),
	}
	s.cmd = exec.Command(filepath.Join(bin, "briq-server"),
		"-addr", "127.0.0.1:"+strconv.Itoa(port),
		"-model", model, "-store", storeDir, "-quiet")
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
	// A benchmark process killed mid-run takes its server with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Stdout = s.stderr
	s.cmd.Stderr = s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start briq-server: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()

	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("briq-server exited during boot: %v\n%s", s.err, s.stderr)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("briq-server not healthy after 60s\n%s", s.stderr)
		}
	}
}

// stop asks the server to drain and exit, killing it if it does not, and
// waits until the process has ended. A clean drain returns nil.
func (s *server) stop() error {
	select {
	case <-s.exited:
		return s.err
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return s.err
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("briq-server did not drain within 30s")
	}
}

// peakRSSMB reads the server's high-water resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// servingCounters reads the serving-layer section of /v1/metrics: cache
// hits, misses, evictions and sheds.
func (s *server) servingCounters(ctx context.Context, c *http.Client) (map[string]int64, error) {
	body, status, err := get(ctx, c, s.base+"/v1/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", status)
	}
	var snap struct {
		Serving map[string]int64 `json:"serving"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("decode /v1/metrics: %w", err)
	}
	return snap.Serving, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// newConn returns a client that holds at most one connection to a server:
// the benchmark drives the servers over two such clients at a time.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// get issues a GET and returns the whole body and status.
func get(ctx context.Context, c *http.Client, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	return do(c, req)
}

// post issues a POST and returns the whole body and status.
func post(ctx context.Context, c *http.Client, url, contentType string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", contentType)
	return do(c, req)
}

func do(c *http.Client, req *http.Request) ([]byte, int, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	return body, resp.StatusCode, nil
}
