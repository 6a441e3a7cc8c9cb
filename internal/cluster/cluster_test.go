package cluster

import (
	"bytes"
	"os"
	"testing"
	"time"

	"repro/internal/lang"
	"repro/internal/rt"
)

func TestMemStore(t *testing.T) {
	s := NewMemStore()
	if err := s.Put("a", []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte{3}); err != nil {
		t.Fatal(err)
	}
	d, err := s.Get("a")
	if err != nil || len(d) != 2 {
		t.Fatalf("Get: %v %v", d, err)
	}
	// Mutating the returned slice must not corrupt the store.
	d[0] = 99
	d2, _ := s.Get("a")
	if d2[0] != 1 {
		t.Fatal("store aliased caller memory")
	}
	names, _ := s.List()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("List = %v", names)
	}
	if _, err := s.Get("ghost"); err == nil {
		t.Fatal("missing name returned data")
	}
}

func TestDirStore(t *testing.T) {
	s, err := NewDirStore(t.TempDir() + "/ckpts")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("grid-ck-0", []byte("#!mcc-run\nxyz")); err != nil {
		t.Fatal(err)
	}
	d, err := s.Get("grid-ck-0")
	if err != nil || string(d) != "#!mcc-run\nxyz" {
		t.Fatalf("Get: %q %v", d, err)
	}
	names, err := s.List()
	if err != nil || len(names) != 1 || names[0] != "grid-ck-0" {
		t.Fatalf("List = %v, %v", names, err)
	}
	for _, bad := range []string{"", ".", "..", "a/b", "a\\b"} {
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Fatalf("Put(%q) accepted", bad)
		}
	}
}

// TestDirStorePutAtomic: concurrent writers of the same checkpoint name
// must each land a complete image (rename is atomic; temp files are
// unique), and no temp droppings may linger or show up in List.
func TestDirStorePutAtomic(t *testing.T) {
	s, err := NewDirStore(t.TempDir() + "/ckpts")
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	images := make([][]byte, writers)
	for i := range images {
		images[i] = bytes.Repeat([]byte{byte('A' + i)}, 64<<10)
	}
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func(i int) { errs <- s.Put("grid-ck-0", images[i]) }(i)
	}
	for i := 0; i < writers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Get("grid-ck-0")
	if err != nil {
		t.Fatal(err)
	}
	complete := false
	for _, img := range images {
		complete = complete || bytes.Equal(got, img)
	}
	if !complete {
		t.Fatalf("checkpoint is not any writer's complete image (%d bytes, first byte %q)", len(got), got[0])
	}
	names, err := s.List()
	if err != nil || len(names) != 1 || names[0] != "grid-ck-0" {
		t.Fatalf("List = %v, %v (temp files must not leak into the namespace)", names, err)
	}
	ents, err := os.ReadDir(s.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		var left []string
		for _, e := range ents {
			left = append(left, e.Name())
		}
		t.Fatalf("store directory holds %v, want only the checkpoint", left)
	}
}

const helloSrc = `
int main() {
	print_int(node_id());
	return int(node_id()) * 10;
}`

func TestClusterRunsProcesses(t *testing.T) {
	prog, err := lang.Compile(helloSrc, Externs())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	c := NewEngine(EngineConfig{Stdout: &out})
	defer c.Close()
	for n := int64(0); n < 3; n++ {
		if err := c.StartProcess(n, prog, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	states, err := c.Wait(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for n := int64(0); n < 3; n++ {
		st := states[n]
		if st.Status != rt.StatusHalted || st.Halt != n*10 {
			t.Fatalf("node %d: %+v", n, st)
		}
	}
}

const pingPongSrc = `
int main() {
	int me = node_id();
	ptr buf = alloc(1);
	if (me == 0) {
		buf[0] = 7;
		int s = msg_send(1, 1, buf, 0, 1);
		int r = msg_recv(1, 2, buf, 0, 1);
		if (r != 0) { return -1; }
		return buf[0]; // 7 * 3
	}
	int r = msg_recv(0, 1, buf, 0, 1);
	if (r != 0) { return -1; }
	buf[0] = buf[0] * 3;
	int s = msg_send(0, 2, buf, 0, 1);
	return buf[0];
}`

func TestClusterMessagePassing(t *testing.T) {
	prog, err := lang.Compile(pingPongSrc, Externs())
	if err != nil {
		t.Fatal(err)
	}
	c := NewEngine(EngineConfig{})
	defer c.Close()
	for n := int64(0); n < 2; n++ {
		if err := c.StartProcess(n, prog, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	states, err := c.Wait(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if states[0].Halt != 21 || states[1].Halt != 21 {
		t.Fatalf("halt codes: %d, %d (want 21, 21)", states[0].Halt, states[1].Halt)
	}
}

func TestFailStopsProcess(t *testing.T) {
	// A process blocked on a receive that never comes is failed: it must
	// stop (killed) and be reported as such.
	src := `
int main() {
	ptr buf = alloc(1);
	int r = msg_recv(9, 1, buf, 0, 1); // nobody sends
	if (r == 1) {
		// MSG_ROLL with no open speculation: just exit distinctly.
		return 77;
	}
	return r;
}`
	prog, err := lang.Compile(src, Externs())
	if err != nil {
		t.Fatal(err)
	}
	c := NewEngine(EngineConfig{})
	defer c.Close()
	if err := c.StartProcess(0, prog, nil, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	c.Fail(0)
	states, err := c.Wait(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st := states[0]
	// The process observed MSG_ROLL (fail epoch) and exited 77, or was
	// killed at a quantum boundary; both are acceptable terminal states.
	if !st.Killed && !(st.Status == rt.StatusHalted && st.Halt == 77) {
		t.Fatalf("state = %+v", st)
	}
}
