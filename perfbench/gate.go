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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
)

const (
	gateFibN     = 16
	gateFib      = 987 // fib(16)
	gateWorkers  = 2
	gateConns    = 2 // client connections to the gateway
	gateTimeout  = 10 * time.Second
	gateReqIDHdr = "X-Perfbench-Req"
)

// gate-http: an in-process cluster.Gateway with lwtgate's defaults in
// front of two lwtserved processes (-shards 1 -threads 1), so the ring,
// p2c, proxy and the workers' HTTP decode/encode are on the path.
func runGate(cfg *config) (*result, error) {
	if cfg.lwtserved == "" {
		return nil, errors.New("gate-http needs --lwtserved")
	}
	return runServing(cfg, servingSpec{
		rate: 300, window: 2, keyed: 0.5, keys: 1024, warmup: 200,
		open: func(cfg *config, clk realClock) (target, error) { return openGate(cfg, clk) },
	})
}

// worker is one lwtserved process.
type worker struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been waited for
}

// startWorker launches lwtserved on an ephemeral port and returns once
// it announced its address and answers /readyz.
func startWorker(bin, dir string) (*worker, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-shards", "1", "-threads", "1", "-trace-dir", dir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &worker{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1) // the one announced address
	go func() {
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok && !announced {
				addrc <- strings.Fields(rest)[0]
				announced = true
			}
		}
		close(addrc)
		_ = cmd.Wait()
		close(w.done)
	}()
	addr, ok := <-addrc
	if !ok {
		<-w.done
		return nil, fmt.Errorf("lwtserved exited before listening: %v", cmd.ProcessState)
	}
	w.addr = addr
	deadline := time.Now().Add(gateTimeout)
	for {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return w, nil
			}
		}
		if time.Now().After(deadline) {
			w.stop()
			return nil, fmt.Errorf("lwtserved %s not ready: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peakRSSMB reads the worker's VmHWM.
func (w *worker) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", w.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// stop asks the worker to drain and waits; one that does not exit in
// time is killed.
func (w *worker) stop() {
	_ = w.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-w.done:
	case <-time.After(gateTimeout):
		_ = w.cmd.Process.Kill()
		<-w.done
	}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

type gate struct {
	clk     realClock
	workers []*worker
	table   *cluster.Table
	gw      *cluster.Gateway
	checker *cluster.Checker
	hs      *http.Server
	served  chan struct{} // closed when hs.Serve returns
	url     string
	client  *http.Client
	dir     string

	gwTimes sync.Map // request id -> [2]time.Duration, ServeHTTP call and return
	nextID  atomic.Int64

	keyed, owner atomic.Int64 // keyed replies, and those from the key's ring owner
}

func openGate(cfg *config, clk realClock) (t *gate, err error) {
	dir, err := os.MkdirTemp(cfg.out, "lwtserved-")
	if err != nil {
		return nil, err
	}
	t = &gate{clk: clk, dir: dir}
	defer func() {
		if err != nil {
			t.close(newResult())
		}
	}()
	ws := make([]*worker, gateWorkers)
	errs := make([]error, gateWorkers)
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws[i], errs[i] = startWorker(cfg.lwtserved, dir)
		}()
	}
	wg.Wait()
	for i, w := range ws {
		if w != nil {
			t.workers = append(t.workers, w)
		}
		if errs[i] != nil {
			return t, errs[i]
		}
	}

	// lwtgate's defaults: 384 vnodes, eject after 3 failed probes,
	// re-admit after 2, default breaker and retries, no hedging, a
	// 500 ms / 2 s health check.
	t.table = cluster.NewTable(cluster.DefaultVnodes, cluster.HealthPolicy{FailThreshold: 3, OKThreshold: 2})
	for _, w := range t.workers {
		if _, err := t.table.Add(w.addr); err != nil {
			return t, err
		}
	}
	t.gw = cluster.New(cluster.Options{Table: t.table})
	t.checker = cluster.NewChecker(t.table, cluster.HealthConfig{Interval: 500 * time.Millisecond, Timeout: 2 * time.Second})
	t.checker.Start()

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("/", t.serveTimed)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return t, err
	}
	t.hs = &http.Server{Handler: mux}
	t.served = make(chan struct{})
	go func() {
		defer close(t.served)
		_ = t.hs.Serve(ln)
	}()
	t.url = "http://" + ln.Addr().String()
	t.client = &http.Client{
		Timeout: gateTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     gateConns,
			MaxIdleConnsPerHost: gateConns,
		},
	}
	return t, nil
}

// serveTimed calls the gateway, timing ServeHTTP for requests that ask
// for it (traced ones carry an id header).
func (t *gate) serveTimed(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(gateReqIDHdr)
	if id == "" {
		t.gw.ServeHTTP(w, r)
		return
	}
	t0 := t.clk.now()
	t.gw.ServeHTTP(w, r)
	t.gwTimes.Store(id, [2]time.Duration{t0, t.clk.now()})
}

// reply is the part of lwtserved's response envelope the check reads.
type reply struct {
	Value  float64 `json:"value"`
	Micros int64   `json:"micros"`
}

func (t *gate) send(st *stamps, ph *phase, traced bool, done func()) {
	go func() {
		defer done()
		url := t.url + "/fib?n=" + strconv.Itoa(gateFibN) + "&backend=argobots&wait=1"
		if st.key != "" {
			url += "&key=" + st.key
		}
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			ph.fail(failOther)
			return
		}
		var id string
		if traced {
			id = strconv.FormatInt(t.nextID.Add(1), 10)
			req.Header.Set(gateReqIDHdr, id)
		}
		st.send = t.clk.now()
		resp, err := t.client.Do(req)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || os.IsTimeout(err) {
				ph.fail(failTimeout)
			} else {
				ph.fail(failOther)
			}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		st.seen = t.clk.now()
		if traced {
			if v, ok := t.gwTimes.LoadAndDelete(id); ok {
				ts := v.([2]time.Duration)
				st.gw0, st.gw1 = ts[0], ts[1]
			}
		}
		if err != nil {
			ph.fail(failOther)
			return
		}
		if resp.StatusCode != http.StatusOK {
			ph.fail(failStatus)
			return
		}
		var rep reply
		if err := json.Unmarshal(body, &rep); err != nil || rep.Value != gateFib {
			ph.wrong(fmt.Sprintf("request %d: reply %q, want value %d", st.seq, body, gateFib))
			return
		}
		if st.key != "" {
			got := resp.Header.Get(cluster.WorkerHeader)
			t.keyed.Add(1)
			if got == t.table.Ring().Lookup(st.key) {
				t.owner.Add(1)
			}
			// While every worker is healthy the key's first candidate
			// must serve it; otherwise a fallback may, and the ratio
			// above shows how often.
			if t.allHealthy() {
				if want := t.table.KeyedCandidates(st.key)[0].ID; got != want {
					ph.wrong(fmt.Sprintf("key %s served by %q, first candidate %q", st.key, got, want))
					return
				}
			}
		}
		st.micros = rep.Micros
		st.ok = true
		ph.ok.Add(1)
	}()
}

func (t *gate) allHealthy() bool {
	for _, w := range t.table.Workers() {
		if !w.Healthy() {
			return false
		}
	}
	return true
}

func (t *gate) counters() counters {
	m := t.gw.Snapshot()
	return counters{"proxied": float64(m.Proxied), "retried": float64(m.Retried), "reroute503": float64(m.Reroutes503)}
}

func (t *gate) poll() {}

func (t *gate) layers(res *result, from, to counters, p *passOut) {
	if n := to["proxied"] - from["proxied"]; n > 0 {
		res.set("cluster.retry_ratio", "ratio", (to["retried"]-from["retried"])/n)
		res.set("cluster.reroute503_ratio", "ratio", (to["reroute503"]-from["reroute503"])/n)
	}
	if k := t.keyed.Load(); k > 0 {
		res.set("cluster.keyed_owner_ratio", "ratio", float64(t.owner.Load())/float64(k))
	}
	var proxy, handler, http dist
	for _, st := range p.traced {
		if !st.ok || st.gw1 == 0 {
			continue
		}
		gw := st.gw1 - st.gw0
		proxy.add(us(gw) - float64(st.micros))
		handler.add(float64(st.micros))
		http.add(us(st.seen - st.send - gw))
	}
	if len(proxy.xs) > 0 {
		res.set("cluster.proxy_us_p50", "us", proxy.q(50))
		res.set("cluster.proxy_us_p99", "us", proxy.q(99))
		res.set("lwtserved.handler_us_p50", "us", handler.q(50))
		res.set("lwtserved.handler_us_p99", "us", handler.q(99))
		res.set("loadgen.http_us_p50", "us", http.q(50))
	}
}

// close stops the gateway and the workers and returns the workers'
// summed peak RSS.
func (t *gate) close(res *result) float64 {
	if t.hs != nil {
		_ = t.hs.Close()
		<-t.served
	}
	if t.checker != nil {
		t.checker.Stop()
	}
	if t.client != nil {
		t.client.CloseIdleConnections()
	}
	var rss float64
	var wg sync.WaitGroup
	for _, w := range t.workers {
		rss += w.peakRSSMB()
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.stop()
		}()
	}
	wg.Wait()
	_ = os.RemoveAll(t.dir)
	return rss
}
