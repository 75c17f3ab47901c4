// Package integration exercises the built command-line binaries end to
// end: the fail-closed exit-code contract (0 verified, 1 violations,
// 2 usage/input error, 3 incomplete or internal error) and the -json wire
// shape shared with the gliftd service.
package integration

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

const cleanSrc = `
start:  mov #0x0280, sp
loop:   jmp loop
`

// violSrc is the Figure 9 unmasked-store micro: a store whose address
// derives from the tainted input port escapes the tainted partition.
const violSrc = `
start:  jmp tstart
tstart: mov &0x0020, r15
        mov #0x0200, r14
        add r15, r14
        mov #500, 0(r14)
done:   jmp done
tend:   nop
`

var violFlags = []string{
	"-tainted-in", "1",
	"-tainted-code", "tstart:tend",
	"-tainted-data", "0x0400:0x0800",
}

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// tool builds the CLI binaries once and returns the path of the named one.
func tool(t *testing.T, name string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain unavailable: %v", err)
	}
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "glift-cli")
		if buildErr != nil {
			return
		}
		// When the test harness runs under the race detector, build the
		// binaries with it too: the soak job's kill -9 storms then race-check
		// the daemon itself, not just the harness.
		args := []string{"build"}
		if raceEnabled {
			args = append(args, "-race")
		}
		args = append(args, "-o", binDir,
			"./cmd/gliftcheck", "./cmd/secure430", "./cmd/gliftd", "./cmd/gliftload", "./cmd/traceview")
		cmd := exec.Command("go", args...)
		cmd.Dir = ".." // repo root
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("building CLIs: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(binDir, name)
}

func writeSrc(t *testing.T, name, src string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// run executes a built binary and returns its exit code and stdout.
func run(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
		}
		return ee.ExitCode(), string(out)
	}
	return 0, string(out)
}

// TestGliftcheckExitCodes pins the documented fail-closed contract.
func TestGliftcheckExitCodes(t *testing.T) {
	gc := tool(t, "gliftcheck")
	clean := writeSrc(t, "clean.s43", cleanSrc)
	viol := writeSrc(t, "viol.s43", violSrc)

	if code, out := run(t, gc, clean); code != 0 {
		t.Errorf("clean program: exit %d\n%s", code, out)
	}
	if code, _ := run(t, gc, append(append([]string{}, violFlags...), viol)...); code != 1 {
		t.Errorf("violating program: exit %d, want 1", code)
	}
	if code, _ := run(t, gc, filepath.Join(t.TempDir(), "missing.s43")); code != 2 {
		t.Errorf("missing input: exit %d, want 2", code)
	}
	if code, _ := run(t, gc, "-tainted-in", "9", clean); code != 2 {
		t.Errorf("bad port flag: exit %d, want 2", code)
	}
	if code, _ := run(t, gc, writeSrc(t, "bad.s43", "not an instruction\n")); code != 2 {
		t.Errorf("unassemblable source: exit %d, want 2", code)
	}
	// The CLIs always run the compiled backend, so -backend is an unknown
	// flag: a usage error.
	if code, _ := run(t, gc, "-backend", "bitslice", clean); code != 2 {
		t.Errorf("removed -backend flag: exit %d, want 2", code)
	}
	if code, _ := run(t, gc, "-tainted-code", "nosuch:end", clean); code != 2 {
		t.Errorf("unresolvable range symbol: exit %d, want 2", code)
	}
	// An already-expired deadline aborts the exploration before it proves
	// anything: fail closed with exit 3, never 0.
	if code, _ := run(t, gc, "-deadline", "1ns", clean); code != 3 {
		t.Errorf("expired deadline: exit %d, want 3", code)
	}
}

// TestSecure430ExitCodes: the toolflow repairs the violating program to a
// verified one (exit 0) and shares the usage-error surface.
func TestSecure430ExitCodes(t *testing.T) {
	sc := tool(t, "secure430")
	viol := writeSrc(t, "viol.s43", violSrc)
	fixed := filepath.Join(t.TempDir(), "fixed.s43")

	code, _ := run(t, sc, append(append([]string{}, violFlags...), "-o", fixed, viol)...)
	if code != 0 {
		t.Errorf("repairable program: exit %d, want 0 after masking", code)
	}
	if _, err := os.Stat(fixed); err != nil {
		t.Errorf("no modified assembly written: %v", err)
	}
	if code, _ := run(t, sc, filepath.Join(t.TempDir(), "missing.s43")); code != 2 {
		t.Errorf("missing input: exit %d, want 2", code)
	}
	// -backend is an unknown flag, as on gliftcheck.
	if code, _ := run(t, sc, "-backend", "bitslice", viol); code != 2 {
		t.Errorf("removed -backend flag: exit %d, want 2", code)
	}
	if code, _ := run(t, sc, "-tainted-code", "nosuch:end", viol); code != 2 {
		t.Errorf("unresolvable range symbol: exit %d, want 2", code)
	}
	if code, _ := run(t, sc, "-deadline", "1ns", viol); code != 3 {
		t.Errorf("expired deadline: exit %d, want 3", code)
	}
}

var volatileStats = regexp.MustCompile(`"(wall_ns|peak_mem_bytes)": \d+`)

// TestGliftcheckJSONGolden pins the -json wire shape byte-for-byte (after
// zeroing the wall-clock and memory stats, the only nondeterministic
// fields): the CLI and the gliftd service must keep emitting the same
// schema.
func TestGliftcheckJSONGolden(t *testing.T) {
	gc := tool(t, "gliftcheck")
	viol := writeSrc(t, "viol.s43", violSrc)

	code, out := run(t, gc, append(append([]string{"-json"}, violFlags...), viol)...)
	if code != 1 {
		t.Fatalf("violating program: exit %d, want 1", code)
	}
	got := volatileStats.ReplaceAllString(out, `"$1": 0`)
	want, err := os.ReadFile(filepath.Join("testdata", "viol.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("-json output drifted from the golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSecure430JSON: -json emits one parseable report on stdout and keeps
// the assembly off it.
func TestSecure430JSON(t *testing.T) {
	sc := tool(t, "secure430")
	viol := writeSrc(t, "viol.s43", violSrc)

	code, out := run(t, sc, append(append([]string{"-json"}, violFlags...), viol)...)
	if code != 0 {
		t.Fatalf("repairable program: exit %d, want 0", code)
	}
	if !regexp.MustCompile(`"verdict": "verified"`).MatchString(out) {
		t.Errorf("missing verified verdict in JSON output:\n%s", out)
	}
	if regexp.MustCompile(`(?m)^\s*mov`).MatchString(out) {
		t.Errorf("-json stdout should not contain assembly:\n%s", out)
	}
}
