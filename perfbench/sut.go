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
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env locates the built binaries and the scratch area of the checkout.
type env struct {
	Bin string // directory holding serve and train
	Tmp string // parent of every temp dir the benchmark makes
	Log string // where serve's log is kept when a run fails
}

// modelFamily is the model every workload trains and serves: k-nearest
// neighbours trains in milliseconds, so the leave-one-out models the
// warm pass needs do not swamp set-up time.
const modelFamily = "knn"

// sut is one system under test: a temp dir holding the offline phase's
// database and model artifacts, and a running serve process.
type sut struct {
	Dir  string
	Base string // http://127.0.0.1:port
	cmd  *osexec.Cmd
	done chan error // receives cmd.Wait's result once
}

// offline runs cmd/train into dir: the training database over sizes
// S0..maxSize and one full model artifact per platform.
func offline(ctx context.Context, e env, dir string) error {
	logf, err := os.Create(filepath.Join(dir, "train.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	cmd := osexec.CommandContext(ctx, filepath.Join(e.Bin, "train"),
		"-out", filepath.Join(dir, "db.json"),
		"-model-out", filepath.Join(dir, "models"),
		"-model", modelFamily,
		"-maxsize", strconv.Itoa(maxSize),
		"-quiet")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("train: %w (log in %s)", err, logf.Name())
	}
	return nil
}

// freePort asks the OS for a free loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServe starts serve on an OS-chosen port over dir's database and
// artifacts and waits until /healthz answers. The retrainer stays off,
// so the served models never change during a run.
func startServe(ctx context.Context, e env, dir string, w *workload) (*sut, error) {
	var lastErr error
	// The port is free when chosen but could be taken before serve binds
	// it; a few attempts make that race harmless.
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		args := []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-db", filepath.Join(dir, "db.json"),
			"-models", filepath.Join(dir, "models"),
			"-model", modelFamily,
			"-platforms", strings.Join(platforms, ","),
		}
		if w.Obs {
			args = append(args, "-obs", filepath.Join(dir, "obs"))
		}
		logf, err := os.OpenFile(filepath.Join(dir, "serve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		cmd := osexec.Command(filepath.Join(e.Bin, "serve"), args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, fmt.Errorf("start serve: %w", err)
		}
		s := &sut{Dir: dir, Base: fmt.Sprintf("http://127.0.0.1:%d", port), cmd: cmd, done: make(chan error, 1)}
		go func() {
			s.done <- cmd.Wait()
			logf.Close()
		}()
		if lastErr = s.waitHealthy(ctx, 30*time.Second); lastErr == nil {
			return s, nil
		}
		s.stop()
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

// waitHealthy polls /healthz until it answers 200, serve exits, or the
// timeout passes.
func (s *sut) waitHealthy(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("serve exited during start-up: %v", err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		resp, err := c.Get(s.Base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
	}
	return fmt.Errorf("serve did not answer /healthz within %s", timeout)
}

// stop ends serve (SIGTERM, then SIGKILL after 10s) and waits for it.
func (s *sut) stop() {
	if s == nil || s.cmd == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.cmd = nil
}

// keepLog copies serve's log out of the temp dir before it is removed,
// and returns where it went.
func (s *sut) keepLog(e env, tag string) string {
	data, err := os.ReadFile(filepath.Join(s.Dir, "serve.log"))
	if err != nil {
		return ""
	}
	if err := os.MkdirAll(e.Log, 0o755); err != nil {
		return ""
	}
	path := filepath.Join(e.Log, fmt.Sprintf("serve-%s-%s.log", tag, time.Now().Format("20060102-150405.000")))
	if os.WriteFile(path, data, 0o644) != nil {
		return ""
	}
	return path
}

// peakRSSMB reads serve's VmHWM (peak resident set) in MiB.
func (s *sut) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// engineCounters is the part of one shard's /stats engine block the
// traced run reads.
type engineCounters struct {
	Compiles            uint64 `json:"compiles"`
	FeatureComputes     uint64 `json:"featureComputes"`
	Trainings           uint64 `json:"trainings"`
	ObservationsDropped uint64 `json:"observationsDropped"`
}

// counters sums the engine counters of every shard from /stats.
func (s *sut) counters(c *client) (engineCounters, error) {
	var st struct {
		Shards []struct {
			Engine engineCounters `json:"engine"`
		} `json:"shards"`
	}
	resp, err := c.hc.Get(s.Base + "/stats")
	if err != nil {
		return engineCounters{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return engineCounters{}, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return engineCounters{}, fmt.Errorf("/stats: %w", err)
	}
	var sum engineCounters
	for _, sh := range st.Shards {
		sum.Compiles += sh.Engine.Compiles
		sum.FeatureComputes += sh.Engine.FeatureComputes
		sum.Trainings += sh.Engine.Trainings
		sum.ObservationsDropped += sh.Engine.ObservationsDropped
	}
	return sum, nil
}
