package mmjoin

// End-to-end smoke tests of the command-line tools: each binary is built
// once and driven with small configurations, checking flag parsing and
// headline output. Skipped under -short.

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"

	"mmjoin/internal/mstore"
)

// buildCmd compiles ./cmd/<name> into a temp dir and returns the binary
// path.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("cmd smoke test")
	}
	bin := filepath.Join(t.TempDir(), name)
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCmdCalibrateSmoke(t *testing.T) {
	bin := buildCmd(t, "calibrate")
	out := runCmd(t, bin, "-fig", "1b")
	for _, want := range []string{"newMap", "openMap", "deleteMap", "12800"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	out = runCmd(t, bin, "-fig", "1a", "-ops", "300")
	if !strings.Contains(out, "dttr") || !strings.Contains(out, "dttw") {
		t.Errorf("fig 1a output:\n%s", out)
	}
	// Unknown figure fails.
	if err := exec.Command(bin, "-fig", "9z").Run(); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestCmdSweepSmoke(t *testing.T) {
	bin := buildCmd(t, "sweep")
	out := runCmd(t, bin, "-fig", "5b", "-objects", "8000")
	if !strings.Contains(out, "sort-merge") || !strings.Contains(out, "NPASS") {
		t.Errorf("fig 5b output:\n%s", out)
	}
	out = runCmd(t, bin, "-fig", "contention", "-objects", "8000")
	if !strings.Contains(out, "staggered") || !strings.Contains(out, "naive") {
		t.Errorf("contention output:\n%s", out)
	}
	out = runCmd(t, bin, "-fig", "dist", "-objects", "8000")
	if !strings.Contains(out, "zipf") {
		t.Errorf("dist output:\n%s", out)
	}
}

func TestCmdJoinsimSmoke(t *testing.T) {
	bin := buildCmd(t, "joinsim")
	out := runCmd(t, bin, "-alg", "grace", "-objects", "8000", "-mem-frac", "0.05", "-trace")
	for _, want := range []string{"experiment:", "model breakdown", "per-process timeline", "K="} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	// K = 376 is past one scan's fan-out (2^8); the simulator hashes into
	// K buckets in one pass, and the model prices no other.
	out = runCmd(t, bin, "-alg", "grace", "-objects", "20000", "-d", "2", "-mem-frac", "0.0016")
	if !strings.Contains(out, "plan: K=376") || strings.Contains(out, "radix pass") {
		t.Errorf("grace at K = 376 output:\n%s", out)
	}
	out = runCmd(t, bin, "-alg", "sort-merge", "-objects", "8000", "-policy", "fifo", "-dist", "local")
	if !strings.Contains(out, "IRUN=") {
		t.Errorf("sort-merge output:\n%s", out)
	}
	if err := exec.Command(bin, "-alg", "nope").Run(); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestCmdMmdbSmoke(t *testing.T) {
	bin := buildCmd(t, "mmdb")
	dir := filepath.Join(t.TempDir(), "db")
	out := runCmd(t, bin, "create", "-dir", dir, "-objects", "8000")
	if !strings.Contains(out, "created") {
		t.Errorf("create output:\n%s", out)
	}
	out = runCmd(t, bin, "join", "-dir", dir)
	if strings.Contains(out, "MISMATCH") || !strings.Contains(out, "hybrid-hash") {
		t.Errorf("join output:\n%s", out)
	}
	// Auto prints every operator's explained plan and predicted time,
	// then runs the cheapest beside its prediction and verifies.
	out = runCmd(t, bin, "join", "-dir", dir, "-alg", "auto")
	if strings.Count(out, "plan:") != 4 || !strings.Contains(out, "(predicted ") || strings.Contains(out, "MISMATCH") {
		t.Errorf("auto join output:\n%s", out)
	}
	// Auto plans with no grant whatever -mrproc says: at one page a
	// partition hybrid hash is still the floor, staging nothing.
	out = runCmd(t, bin, "join", "-dir", dir, "-alg", "auto", "-mrproc", "4096")
	if !regexp.MustCompile(`plan: hybrid-hash .*\(staged 0, arena 0 B\)`).MatchString(out) || !strings.Contains(out, "verification OK") {
		t.Errorf("auto join at -mrproc 4096 output:\n%s", out)
	}
	// A misspelt name, a simulator-only algorithm and an index join on
	// this unindexed store each fail, rather than run nothing and exit 0.
	for a, want := range map[string]string{
		"grce":              "index-merge]",
		"traditional-grace": "unknown -alg",
		"index-nl":          "needs persistent indexes",
	} {
		out, err := exec.Command(bin, "join", "-dir", dir, "-alg", a).CombinedOutput()
		if err == nil || !strings.Contains(string(out), want) {
			t.Errorf("join -alg %s: err %v, want a failure naming %q:\n%s", a, err, want, out)
		}
	}
	// Missing -dir fails.
	if err := exec.Command(bin, "join").Run(); err == nil {
		t.Error("missing -dir accepted")
	}
	// A stored pointer into partition 7 of 4 fails the join as a
	// dangling pointer, exit 1, as verify reports it: no panic.
	db, err := mstore.OpenDB(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	db.R[0].SetJoinAttr(0, mstore.SPtr{Part: 7})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	cmd := exec.Command(bin, "join", "-dir", dir)
	cmd.Stderr = &stderr
	err = cmd.Run()
	if code := cmd.ProcessState.ExitCode(); code != 1 || !strings.Contains(stderr.String(), "dangling pointer") ||
		strings.Contains(stderr.String(), "panic") {
		t.Errorf("join over a dangling pointer: %v, exit %d, want exit 1 naming the dangling pointer:\n%s", err, code, stderr.String())
	}
	// On a store indexed before that rewrite, index merge never follows
	// the pointer and counts |R| pairs; the ground truth, which skips the
	// dangling pointer, counts one fewer, so the line reads MISMATCH and
	// the join exits 1 after printing it: no panic.
	dir = filepath.Join(t.TempDir(), "indexed")
	runCmd(t, bin, "create", "-dir", dir, "-objects", "8000")
	runCmd(t, bin, "index", "-dir", dir)
	if db, err = mstore.OpenDB(dir, 4); err != nil {
		t.Fatal(err)
	}
	db.R[0].SetJoinAttr(0, mstore.SPtr{Part: 7})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	cmd = exec.Command(bin, "join", "-dir", dir, "-alg", "index-merge")
	joined, err := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 || !strings.Contains(string(joined), "index-merge") ||
		!strings.Contains(string(joined), "verification MISMATCH") || strings.Contains(string(joined), "panic") {
		t.Errorf("index-merge over a stale index: %v, exit %d, want exit 1 after a MISMATCH line:\n%s", err, code, joined)
	}
}

// TestCmdMmdbServeSmoke drives the query service end to end: start on an
// ephemeral port, one planner-chosen join round-trip over HTTP, then a
// SIGTERM graceful drain.
func TestCmdMmdbServeSmoke(t *testing.T) {
	bin := buildCmd(t, "mmdb")
	dir := filepath.Join(t.TempDir(), "db")
	runCmd(t, bin, "create", "-dir", dir, "-objects", "5000")

	cmd := exec.Command(bin, "serve", "-dir", dir, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first line announces the bound address.
	rd := bufio.NewReader(stdout)
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("reading serve banner: %v", err)
	}
	i := strings.Index(line, "http://")
	j := strings.Index(line[i:], " ")
	if i < 0 || j < 0 {
		t.Fatalf("no address in banner %q", line)
	}
	base := line[i : i+j]

	resp, err := http.Post(base+"/v1/join", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"pairs": 5000`) {
		t.Fatalf("join round-trip: status %d body %s", resp.StatusCode, body)
	}
	// Auto is charged the grant it names but plans and runs with none.
	resp, err = http.Post(base+"/v1/join", "application/json", strings.NewReader(`{"algorithm":"auto","memBytes":16384}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"mrprocBytes": 0`) {
		t.Fatalf("auto join at 16 KiB: status %d body %s", resp.StatusCode, body)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(rd)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve exit: %v\n%s", err, rest)
	}
	if !strings.Contains(string(rest), "drained") {
		t.Fatalf("no graceful drain in output:\n%s", rest)
	}
}
