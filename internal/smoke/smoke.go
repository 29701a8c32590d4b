// Package smoke is the process harness shared by the multi-process
// drills (cmd/clustersmoke, cmd/chaossmoke): it starts child daemons
// with their output archived under a log directory, waits for the
// listen address they announce, signals and reaps them, and tallies
// check failures so one run reports as much as it safely can.
package smoke

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// Proc is one supervised child process with a scanned log.
type Proc struct {
	Cmd *exec.Cmd

	name     string
	logPath  string
	addr     chan string // actual bound address, sent once
	mu       sync.Mutex
	exited   bool
	exitCode int
	waitDone chan struct{}
}

// Start launches bin, tees its output to logDir/<name>.log, and
// watches for the parseable "listening on <addr>" line.
func Start(logDir, name, bin string, args ...string) (*Proc, error) {
	p := &Proc{
		name:     name,
		logPath:  filepath.Join(logDir, name+".log"),
		addr:     make(chan string, 1),
		waitDone: make(chan struct{}),
	}
	logFile, err := os.Create(p.logPath)
	if err != nil {
		return nil, err
	}
	p.Cmd = exec.Command(bin, args...)
	pr, pw := io.Pipe()
	p.Cmd.Stdout = pw
	p.Cmd.Stderr = pw
	go func() {
		defer logFile.Close()
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			if !announced {
				if m := listenRe.FindStringSubmatch(line); m != nil {
					announced = true
					p.addr <- m[1]
				}
			}
		}
	}()
	if err := p.Cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		err := p.Cmd.Wait()
		pw.Close()
		p.mu.Lock()
		p.exited = true
		p.exitCode = 0
		if err != nil {
			p.exitCode = -1
			if ee, ok := err.(*exec.ExitError); ok {
				p.exitCode = ee.ExitCode()
			}
		}
		p.mu.Unlock()
		close(p.waitDone)
	}()
	return p, nil
}

// WaitAddr blocks for the announced listen address.
func (p *Proc) WaitAddr(d time.Duration) (string, error) {
	select {
	case a := <-p.addr:
		return a, nil
	case <-p.waitDone:
		return "", fmt.Errorf("%s exited before announcing its address (see %s.log)", p.name, p.name)
	case <-time.After(d):
		return "", fmt.Errorf("%s did not announce its address within %v", p.name, d)
	}
}

// SignalAndWait sends sig and waits for exit, returning the exit code.
func (p *Proc) SignalAndWait(sig syscall.Signal, d time.Duration) (int, error) {
	_ = p.Cmd.Process.Signal(sig)
	select {
	case <-p.waitDone:
	case <-time.After(d):
		_ = p.Cmd.Process.Kill()
		return -1, fmt.Errorf("%s did not exit within %v of %v", p.name, d, sig)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exitCode, nil
}

// Kill ends the process unless it has already exited.
func (p *Proc) Kill() {
	p.mu.Lock()
	exited := p.exited
	p.mu.Unlock()
	if !exited && p.Cmd.Process != nil {
		_ = p.Cmd.Process.Kill()
	}
}

// LogContains greps the process's archived log.
func (p *Proc) LogContains(substr string) bool {
	b, err := os.ReadFile(p.logPath)
	return err == nil && strings.Contains(string(b), substr)
}

var failures atomic.Int32

// Failf records one check failure and logs it; the drill keeps going.
func Failf(format string, args ...any) {
	failures.Add(1)
	log.Printf("FAIL: "+format, args...)
}

// Failures reports how many checks Failf has recorded.
func Failures() int32 { return failures.Load() }

// Fatalf logs, kills every started process and exits 1.
func Fatalf(procs []*Proc, format string, args ...any) {
	log.Printf("FATAL: "+format, args...)
	for _, p := range procs {
		if p != nil {
			p.Kill()
		}
	}
	os.Exit(1)
}
