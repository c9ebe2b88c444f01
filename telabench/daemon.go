package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"telamalloc/internal/wire"
)

// daemon is one telamallocd subprocess serving TCP on a loopback port.
type daemon struct {
	cmd         *exec.Cmd
	addr        string // request listener
	metricsAddr string // /debug/vars listener
	stderr      *strings.Builder
	mu          sync.Mutex // guards stderr
	exited      chan struct{}
}

// startDaemon execs the daemon at its serving defaults, plus a loopback
// metrics listener for reading its memory statistics, and returns once the
// request listener accepts a connection. The returned duration runs from
// exec to that first accepted connection.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-q")
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, stderr: &strings.Builder{}, exited: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		var a [2]string
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "telamallocd: observability on http://"); ok {
				a[1] = strings.TrimSuffix(rest, "/metrics")
			}
			if rest, ok := strings.CutPrefix(line, "telamallocd: listening on "); ok {
				a[0] = rest
				addrs <- a
			}
		}
		_ = cmd.Wait() // exit status is judged by stop
		close(d.exited)
	}()
	select {
	case a := <-addrs:
		d.addr, d.metricsAddr = a[0], a[1]
	case <-d.exited:
		return nil, 0, fmt.Errorf("daemon exited before listening: %s", d.log())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, 0, errors.New("daemon did not start listening within 30s")
	}
	for {
		c, err := net.Dial("tcp", d.addr)
		if err == nil {
			c.Close()
			return d, time.Since(t0), nil
		}
		if time.Since(t0) > 30*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("dial daemon: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// stop asks the daemon to drain (SIGTERM) and waits for it to exit,
// killing it if the drain overruns.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // a dead process is already stopped
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.kill()
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already-exited is fine
	<-d.exited
}

// totalAllocBytes reads the daemon's cumulative heap allocation from its
// expvar memstats.
func (d *daemon) totalAllocBytes() (uint64, error) {
	resp, err := http.Get("http://" + d.metricsAddr + "/debug/vars")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var v struct {
		Memstats struct {
			TotalAlloc uint64 `json:"TotalAlloc"`
		} `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return 0, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return v.Memstats.TotalAlloc, nil
}

// reply is one report as the client received it.
type reply struct {
	resp     wire.Response
	at       time.Time
	decodeNS int64
	err      error
}

// conn is one client connection with a demultiplexing reader: reports are
// matched to requests by wire id.
type conn struct {
	c       net.Conn
	wmu     sync.Mutex
	pmu     sync.Mutex
	pending map[string]chan reply
	done    chan struct{}
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	k := &conn{c: c, pending: map[string]chan reply{}, done: make(chan struct{})}
	go k.readLoop()
	return k, nil
}

// readLoop decodes report lines until the connection closes, then fails
// every request still pending.
func (k *conn) readLoop() {
	defer close(k.done)
	r := bufio.NewReaderSize(k.c, 1<<16)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			k.failAll(err)
			return
		}
		at := time.Now()
		var resp wire.Response
		derr := json.Unmarshal(line, &resp)
		dec := time.Since(at).Nanoseconds()
		k.pmu.Lock()
		ch := k.pending[resp.ID]
		delete(k.pending, resp.ID)
		k.pmu.Unlock()
		if ch == nil {
			continue // a report for no pending request (e.g. a connection-level rejection)
		}
		ch <- reply{resp: resp, at: at, decodeNS: dec, err: derr}
	}
}

func (k *conn) failAll(err error) {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		err = fmt.Errorf("connection closed: %w", err)
	}
	k.pmu.Lock()
	defer k.pmu.Unlock()
	for id, ch := range k.pending {
		ch <- reply{err: err, at: time.Now()}
		delete(k.pending, id)
	}
}

// send writes one encoded request line and returns the channel its report
// arrives on (buffered, so the reader never blocks on it).
func (k *conn) send(id string, line []byte) (<-chan reply, error) {
	ch := make(chan reply, 1)
	k.pmu.Lock()
	k.pending[id] = ch
	k.pmu.Unlock()
	k.wmu.Lock()
	_, err := k.c.Write(line)
	k.wmu.Unlock()
	if err != nil {
		k.pmu.Lock()
		delete(k.pending, id)
		k.pmu.Unlock()
		return nil, fmt.Errorf("write request %s: %w", id, err)
	}
	return ch, nil
}

func (k *conn) close() {
	k.c.Close()
	<-k.done
}

// roundTrip sends one request and waits for its report (closed loop).
func (k *conn) roundTrip(ctx context.Context, id string, line []byte) (reply, error) {
	ch, err := k.send(id, line)
	if err != nil {
		return reply{}, err
	}
	select {
	case r := <-ch:
		return r, r.err
	case <-ctx.Done():
		return reply{}, ctx.Err()
	}
}

// encodeRequest marshals a request as one protocol line.
func encodeRequest(req wire.Request) ([]byte, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encode request %s: %w", req.ID, err)
	}
	return append(b, '\n'), nil
}

// daemonBinary is where the launcher builds telamallocd.
func daemonBinary() (string, error) {
	bin := os.Getenv("TELABENCH_DAEMON")
	if bin == "" {
		return "", errors.New("TELABENCH_DAEMON is not set; run the benchmark through telabench/run.sh")
	}
	return bin, nil
}
