// Soak and shutdown tests for gliftd as a real process: the chaos harness
// (kill -9 durability, disk-full degradation, 503 injection) and the
// SIGTERM drain contract. A short smoke profile always runs; set GLIFT_SOAK
// for the longer storm CI's soak job uses.
package integration

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// chaosArgs is the short smoke profile: one kill cycle over a small corpus,
// enough to traverse all three phases in seconds.
var chaosArgs = []string{"-chaos", "-n", "18", "-distinct", "6", "-c", "4",
	"-kills", "1", "-kill-interval", "150ms"}

// soakArgs is the storm profile behind GLIFT_SOAK (the CI soak job).
var soakArgs = []string{"-chaos", "-n", "96", "-distinct", "12", "-c", "8",
	"-kills", "4", "-kill-interval", "250ms"}

func runGliftload(t *testing.T, args []string) {
	t.Helper()
	gd := tool(t, "gliftd")
	gl := tool(t, "gliftload")
	cmd := exec.Command(gl, append(append([]string{}, args...), "-gliftd", gd)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("gliftload: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "gliftload: OK") {
		t.Fatalf("gliftload did not report OK:\n%s", out)
	}
	if strings.Contains(string(out), "INTEGRITY VIOLATION") {
		t.Fatalf("integrity violations:\n%s", out)
	}
}

// TestChaosSmoke always runs the short chaos profile: the durability and
// admission invariants hold across a real kill -9 cycle.
func TestChaosSmoke(t *testing.T) {
	runGliftload(t, chaosArgs)
}

// TestChaosSoak is the long storm, opt-in via GLIFT_SOAK (CI's soak job).
func TestChaosSoak(t *testing.T) {
	if os.Getenv("GLIFT_SOAK") == "" {
		t.Skip("set GLIFT_SOAK to run the full soak storm")
	}
	runGliftload(t, soakArgs)
}

// syncBuffer collects daemon stderr; exec's copier goroutine writes while
// the test reads, so access is locked.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// freePort reserves a localhost address and releases it for gliftd to bind.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startDaemon launches gliftd and waits for /healthz.
func startDaemon(t *testing.T, addr string, extra ...string) (*exec.Cmd, *syncBuffer) {
	t.Helper()
	gd := tool(t, "gliftd")
	logs := new(syncBuffer)
	cmd := exec.Command(gd, append([]string{"-addr", addr}, extra...)...)
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd, logs
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatalf("gliftd on %s never became healthy\n%s", addr, logs.String())
	return nil, nil
}

// submit posts one job with ?wait=1 and returns the status code and the
// decoded cache_hit field.
func submit(t *testing.T, addr, source string) (int, bool) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"source": source, "policy": map[string]any{"name": "p"},
	})
	resp, err := http.Post("http://"+addr+"/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		CacheHit bool `json:"cache_hit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("submit: decoding: %v", err)
	}
	return resp.StatusCode, st.CacheHit
}

// TestGliftdSIGTERMDrain pins the ordered-shutdown contract: on SIGTERM the
// daemon drains and exits zero within the drain bound, completed results
// are on disk, and a restarted daemon serves them from the recovered store.
func TestGliftdSIGTERMDrain(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	addr := freePort(t)
	cmd, logs := startDaemon(t, addr, "-store-dir", dir, "-workers", "2", "-drain-timeout", "10s")

	const src = "start: mov #0x0280, sp\nloop:   jmp loop\n"
	if code, _ := submit(t, addr, src); code != http.StatusOK {
		t.Fatalf("submission: code=%d", code)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("gliftd exited non-zero after SIGTERM: %v\n%s", err, logs.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("gliftd did not exit within the drain bound\n%s", logs.String())
	}
	for _, want := range []string{"shutting down", "stopped"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("shutdown log missing %q:\n%s", want, logs.String())
		}
	}

	// The restarted daemon recovers the persisted result: same submission,
	// served as a hit without re-running the engine.
	cmd2, logs2 := startDaemon(t, freePortReuse(t, addr), "-store-dir", dir, "-workers", "2")
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	if !strings.Contains(logs2.String(), "result store recovered") ||
		!strings.Contains(logs2.String(), `"entries":1`) {
		t.Errorf("restart log missing recovery line:\n%s", logs2.String())
	}
	if code, hit := submit(t, addrOf(cmd2), src); code != http.StatusOK || !hit {
		t.Errorf("recovered submission: code=%d hit=%v, want 200/true", code, hit)
	}
}

// TestStreamLatencyGate drives the full telemetry loop against a real
// daemon: gliftload in streaming mode consumes every job's SSE stream to
// its verdict, the per-stage latency report lands within a generous p99
// budget, the NDJSON event dump validates under traceview, and — the
// negative half the gate exists for — an impossibly tight budget fails the
// run with a non-zero exit.
func TestStreamLatencyGate(t *testing.T) {
	addr := freePort(t)
	cmd, logs := startDaemon(t, addr, "-workers", "2", "-log-level", "debug")
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	gl := tool(t, "gliftload")
	dump := filepath.Join(t.TempDir(), "events.ndjson")

	out, err := exec.Command(gl, "-addr", "http://"+addr,
		"-n", "24", "-distinct", "6", "-c", "4", "-stream-trace", "4",
		"-p99-budget", "120s", "-stream-dump", dump).CombinedOutput()
	if err != nil {
		t.Fatalf("gliftload -stream: %v\n%s", err, out)
	}
	for _, want := range []string{"gliftload: OK", "p99 gate", "submit-to-verdict"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("stream report missing %q:\n%s", want, out)
		}
	}

	tv := tool(t, "traceview")
	tvOut, err := exec.Command(tv, dump).CombinedOutput()
	if err != nil {
		t.Fatalf("traceview rejected the stream dump: %v\n%s", err, tvOut)
	}
	if !strings.Contains(string(tvOut), "verdict") {
		t.Errorf("traceview summary missing verdict counts:\n%s", tvOut)
	}

	// The gate must bite: a 1ns budget cannot be met by any real run.
	out, err = exec.Command(gl, "-addr", "http://"+addr,
		"-n", "6", "-distinct", "3", "-c", "2", "-p99-budget", "1ns").CombinedOutput()
	if err == nil {
		t.Fatalf("a 1ns p99 budget did not fail the run:\n%s", out)
	}
	if !strings.Contains(string(out), "exceeds budget") {
		t.Errorf("budget failure not reported:\n%s", out)
	}

	// Structured logs: per-job completion lines with job_id/verdict fields.
	if !strings.Contains(logs.String(), `"msg":"job completed"`) ||
		!strings.Contains(logs.String(), `"verdict":`) {
		t.Errorf("daemon logs missing structured job-completion lines:\n%.2000s", logs.String())
	}
}

// freePortReuse prefers rebinding the original address (clients keep their
// URLs); falls back to a fresh port if the OS hasn't released it yet.
func freePortReuse(t *testing.T, addr string) string {
	t.Helper()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return freePort(t)
	}
	l.Close()
	return addr
}

// addrOf recovers the -addr argument a daemon was started with.
func addrOf(cmd *exec.Cmd) string {
	for i, a := range cmd.Args {
		if a == "-addr" && i+1 < len(cmd.Args) {
			return cmd.Args[i+1]
		}
	}
	return ""
}
