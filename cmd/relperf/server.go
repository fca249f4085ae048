package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// buildRelcli compiles cmd/relcli from the checkout at root into bin.
func buildRelcli(root, bin string) (string, error) {
	out := filepath.Join(bin, "relcli")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/relcli")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("relperf: building relcli: %v\n%s", err, msg)
	}
	return out, nil
}

// server is one running `relcli serve` process.
type server struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	spawned time.Time
	done    chan error
}

// startServer spawns `relcli serve -addr 127.0.0.1:0` with the given extra
// flags in dir and waits for it to announce its address.
func startServer(relcli, dir string, extra ...string) (*server, error) {
	args := append([]string{"serve", "-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(relcli, args...)
	cmd.Dir = dir
	// A server must not outlive the benchmark, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	s := &server{cmd: cmd, spawned: time.Now(), done: make(chan error, 1)}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("relperf: starting relcli serve: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on http://"); i >= 0 && !announced {
				announced = true
				rest := line[i+len("serving on "):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				addr <- rest
			}
		}
		// Drain to EOF so the child never blocks on a full pipe; the
		// pipe closes when the process exits.
		_, _ = io.Copy(io.Discard, stdout)
		close(addr)
		s.done <- cmd.Wait()
	}()
	select {
	case a, ok := <-addr:
		if ok {
			s.base = a
			return s, nil
		}
	case <-time.After(30 * time.Second):
	}
	s.stop()
	return nil, fmt.Errorf("relperf: relcli serve never announced an address: %s", stderr.String())
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited within ten seconds. It returns once the process
// is gone.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// procCPU returns the user plus system CPU time a process has consumed.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("relperf: short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// scrape is what the benchmark reads from a server at one instant: the
// Prometheus exposition and Go's own memstats from /debug/vars. It never
// reads the relprobe.* expvar mirrors.
type scrape struct {
	prom                  string
	mallocs, bytes, numGC uint64
}

func (s *server) scrape(c *http.Client) (*scrape, error) {
	out := &scrape{}
	prom, err := get(c, s.base+"/metrics")
	if err != nil {
		return nil, err
	}
	out.prom = string(prom)
	vars, err := get(c, s.base+"/debug/vars")
	if err != nil {
		return nil, err
	}
	var v struct {
		Memstats struct {
			Mallocs    uint64
			TotalAlloc uint64
			NumGC      uint64
		} `json:"memstats"`
	}
	if err := json.Unmarshal(vars, &v); err != nil {
		return nil, fmt.Errorf("relperf: /debug/vars: %w", err)
	}
	out.mallocs, out.bytes, out.numGC = v.Memstats.Mallocs, v.Memstats.TotalAlloc, v.Memstats.NumGC
	return out, nil
}

// promSum adds every sample of the named series whose label set contains
// match (empty matches all), e.g. promSum(text, "x_sum", `route="/solve"`).
func promSum(text, name, match string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		sp := strings.LastIndexByte(rest, ' ')
		if !strings.Contains(rest[:sp], match) {
			continue
		}
		if v, err := strconv.ParseFloat(rest[sp+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// get fetches a URL and fails on any non-200 reply.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("relperf: GET %s: %s", url, resp.Status)
	}
	return body, nil
}
