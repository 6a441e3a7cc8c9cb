package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/migrate"
	"repro/internal/wire"
)

// buildMojrun compiles this command once per test binary so the
// integration tests below exercise real, separate OS processes.
var mojrunBin struct {
	path string
	err  error
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mojrun-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	mojrunBin.path = filepath.Join(dir, "mojrun")
	out, err := exec.Command("go", "build", "-o", mojrunBin.path, ".").CombinedOutput()
	if err != nil {
		mojrunBin.err = fmt.Errorf("building mojrun: %v\n%s", err, out)
	}
	os.Exit(m.Run())
}

func bin(t *testing.T) string {
	t.Helper()
	if mojrunBin.err != nil {
		t.Fatal(mojrunBin.err)
	}
	return mojrunBin.path
}

// TestList: -list names every shipped workload.
func TestList(t *testing.T) {
	out, err := exec.Command(bin(t), "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("mojrun -list: %v\n%s", err, out)
	}
	for _, app := range []string{"grid", "allreduce", "taskfarm", "pipeline"} {
		if !strings.Contains(string(out), app) {
			t.Errorf("-list output lacks %q:\n%s", app, out)
		}
	}
}

// TestRepeatableFailInProcess: two -fail events in one in-process run,
// verified bit-exactly.
func TestRepeatableFailInProcess(t *testing.T) {
	out, err := exec.Command(bin(t), "-app", "taskfarm",
		"-fail", "1@1", "-fail", "0@2", "-v").CombinedOutput()
	if err != nil {
		t.Fatalf("mojrun -app taskfarm -fail -fail: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("resurrections 2")) {
		t.Fatalf("no double resurrection recorded:\n%s", out)
	}
	if !bytes.Contains(out, []byte("matches the sequential reference exactly")) {
		t.Fatalf("no exact-match verdict:\n%s", out)
	}
}

// TestScriptFile: the same scenario via a -script file.
func TestScriptFile(t *testing.T) {
	script := filepath.Join(t.TempDir(), "faults.txt")
	if err := os.WriteFile(script, []byte("# two sequential failures\nfail 2@1\nfail 1@2 delay=10ms\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin(t), "-app", "allreduce", "-script", script).CombinedOutput()
	if err != nil {
		t.Fatalf("mojrun -script: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("resurrections 2")) {
		t.Fatalf("script events did not all fire:\n%s", out)
	}
	if !bytes.Contains(out, []byte("matches the sequential reference exactly")) {
		t.Fatalf("no exact-match verdict:\n%s", out)
	}
}

// TestBadFailSpecIsAnError: a malformed -fail reports a parse error
// (exit 2 from flag parsing) instead of dying mid-run.
func TestBadFailSpecIsAnError(t *testing.T) {
	for _, spec := range []string{"x@2", "1", "1@2@zz"} {
		out, err := exec.Command(bin(t), "-app", "grid", "-fail", spec).CombinedOutput()
		if err == nil {
			t.Errorf("-fail %q accepted:\n%s", spec, out)
		}
		if !bytes.Contains(out, []byte("bad fail spec")) {
			t.Errorf("-fail %q: no parse diagnostic:\n%s", spec, out)
		}
	}
}

// TestDistributedSubprocessPipeline: the pipeline across real OS worker
// processes — including the spare worker that adopts the migrating
// stage through the hub — with one injected failure after the handoff.
func TestDistributedSubprocessPipeline(t *testing.T) {
	storeDir := t.TempDir()
	out, err := exec.Command(bin(t), "-app", "pipeline", "-distributed",
		"-fail", "3@1", "-storedir", storeDir, "-v").CombinedOutput()
	if err != nil {
		t.Fatalf("mojrun -app pipeline -distributed: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("matches the sequential reference exactly")) {
		t.Fatalf("no exact-match verdict:\n%s", out)
	}
	if !bytes.Contains(out, []byte("resurrections 1")) {
		t.Fatalf("no resurrection recorded:\n%s", out)
	}
	ents, err := os.ReadDir(storeDir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("shared store dir empty (%v); checkpoints never hit the mount", err)
	}
}

// TestDistributedSubprocessLoopback: the coordinator spawns one grid
// worker OS process per node over loopback TCP; the merged grid must
// match the sequential reference bit-exactly.
func TestDistributedSubprocessLoopback(t *testing.T) {
	out, err := exec.Command(bin(t), "-app", "grid", "-size", "4", "-aux", "8", "-distributed",
		"-nodes", "3", "-steps", "20", "-v").CombinedOutput()
	if err != nil {
		t.Fatalf("mojrun -app grid -distributed: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("matches the sequential reference exactly")) {
		t.Fatalf("no exact-match verdict in output:\n%s", out)
	}
}

// TestDistributedSubprocessFailure: one grid worker process is killed
// after its second checkpoint and a fresh process resurrects it from the
// directory-backed shared store (the paper's NFS mount).
func TestDistributedSubprocessFailure(t *testing.T) {
	storeDir := t.TempDir()
	out, err := exec.Command(bin(t), "-app", "grid", "-size", "4", "-aux", "8", "-distributed",
		"-nodes", "3", "-steps", "20", "-fail", "1@2", "-storedir", storeDir).CombinedOutput()
	if err != nil {
		t.Fatalf("mojrun -app grid -distributed -fail: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("matches the sequential reference exactly")) {
		t.Fatalf("no exact-match verdict:\n%s", out)
	}
	if !bytes.Contains(out, []byte("resurrections 1")) {
		t.Fatalf("no resurrection recorded:\n%s", out)
	}
	ents, err := os.ReadDir(storeDir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("shared store dir empty (%v); checkpoints never hit the mount", err)
	}
}

// TestResumeResolvesCodeObject: checkpoints name their program by hash,
// and the store holds the program once, as a code object. The worker
// that resurrects the killed node is a fresh OS process started with
// -resume: it has never encoded the program, so its restore reads the
// code object through the hub's store. Afterwards every node's
// checkpoint still resolves, from this process too, with the program
// filled in.
func TestResumeResolvesCodeObject(t *testing.T) {
	storeDir := t.TempDir()
	out, err := exec.Command(bin(t), "-app", "grid", "-size", "4", "-aux", "8", "-distributed",
		"-nodes", "3", "-steps", "20", "-fail", "1@2", "-storedir", storeDir).CombinedOutput()
	if err != nil {
		t.Fatalf("mojrun -distributed -fail: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("resurrections 1")) || !bytes.Contains(out, []byte("matches the sequential reference exactly")) {
		t.Fatalf("no verified resurrection:\n%s", out)
	}
	st, err := cluster.NewDirStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	var codes []string
	for _, n := range names {
		if migrate.IsCodeName(n) {
			codes = append(codes, n)
		}
	}
	if len(codes) != 1 {
		t.Fatalf("store holds code objects %v, want exactly one", codes)
	}
	for node := 0; node < 3; node++ {
		name := fmt.Sprintf("grid-ck-%d", node)
		head, err := st.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := wire.DecodeImage(head)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !raw.Code.ByReference() || migrate.CodeName(raw.Code.Hash) != codes[0] {
			t.Fatalf("%s does not name %s by reference", name, codes[0])
		}
		img, err := migrate.FetchImage(st, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(img.Code.Program) == 0 {
			t.Fatalf("%s resolved without its program", name)
		}
	}
}

// TestCoordinatorWithManualJoins: -coordinator spawns nothing; workers
// started separately with -join find it and the run completes.
func TestCoordinatorWithManualJoins(t *testing.T) {
	shape := []string{"-app", "grid", "-nodes", "2", "-size", "4", "-aux", "8", "-steps", "8"}
	coord := exec.Command(bin(t), append([]string{"-coordinator", "-listen", "127.0.0.1:0", "-timeout", "1m"}, shape...)...)
	stderr, err := coord.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	coord.Stdout = &stdout
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Process.Kill() }()

	// The coordinator prints the join address once it is listening.
	addrRe := regexp.MustCompile(`join (127\.0\.0\.1:\d+)`)
	addrCh := make(chan string, 1)
	var errLines strings.Builder
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			errLines.WriteString(line + "\n")
			if m := addrRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("coordinator never announced its address\n%s", errLines.String())
	}

	for n := 0; n < 2; n++ {
		w := exec.Command(bin(t), append([]string{"-join", addr, "-node", fmt.Sprint(n)}, shape...)...)
		wout := &bytes.Buffer{}
		w.Stdout, w.Stderr = wout, wout
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		go func(n int, cmd *exec.Cmd, out *bytes.Buffer) {
			if err := cmd.Wait(); err != nil {
				t.Errorf("worker %d: %v\n%s", n, err, out.String())
			}
		}(n, w, wout)
	}

	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator: %v\n%s\n%s", err, stdout.String(), errLines.String())
	}
	if !strings.Contains(stdout.String(), "matches the sequential reference exactly") {
		t.Fatalf("no exact-match verdict:\n%s", stdout.String())
	}
}
