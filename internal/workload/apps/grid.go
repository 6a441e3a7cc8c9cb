package apps

import (
	"fmt"
	"sync"

	"repro/internal/fir"
	"repro/internal/lang"
	"repro/internal/rt"
	"repro/internal/workload"
)

// grid is the paper's motivating application (§2, Figure 2): a 2D
// Jacobi heat-diffusion grid with row-wise domain decomposition, border
// exchange over the message-passing layer, and a speculative main loop
// that commits and checkpoints every checkpoint_interval steps. The
// fault-tolerance annotations are a handful of language primitives in
// the MojC source; the sequential reference replays the identical
// floating-point operations, so a run with or without injected failures
// is verified bit-exactly.
//
// Size = rows per node, Aux = columns.
type grid struct{}

func (grid) Name() string { return "grid" }

func (grid) Description() string {
	return "the paper's §2 grid computation: Jacobi heat diffusion, row strips, border exchange (Size=rows/node, Aux=cols)"
}

func (grid) Defaults() workload.Params {
	return workload.Params{Nodes: 3, Size: 4, Aux: 8, Steps: 20, CheckpointInterval: 4}
}

func (grid) Validate(p workload.Params) error {
	switch {
	case p.Nodes < 1:
		return fmt.Errorf("grid: need at least one node, have %d", p.Nodes)
	case p.Size < 1 || p.Aux < 3:
		return fmt.Errorf("grid: local domain %dx%d too small", p.Size, p.Aux)
	case p.Steps < 1:
		return fmt.Errorf("grid: need at least one step, have %d", p.Steps)
	case p.CheckpointInterval < 1:
		return fmt.Errorf("grid: checkpoint interval %d must be positive", p.CheckpointInterval)
	}
	return nil
}

// gridSource is the per-node MojC program: Figure 2's simplified
// speculative main loop, complete. Arguments: getarg(0)=nodes, 1=rows,
// 2=cols, 3=timesteps, 4=checkpoint_interval. The node id comes from
// node_id(), the checkpoint target string from ck_name() (both externs).
// internal/lang/testdata/grid.mc ends with a copy of it.
const gridSource = `
// Deterministic initial condition for global row gr, column j.
float initial(int gr, int j) {
	return float((gr * 31 + j * 17) % 100);
}

// Fill u (including ghost rows) for this node's strip.
void init_grid(fptr u, int rows, int cols, int me) {
	for (int i = 0; i < rows + 2; i += 1) {
		int gr = me * rows + i - 1;
		for (int j = 0; j < cols; j += 1) {
			u[i * cols + j] = initial(gr, j);
		}
	}
}

// Exchange border rows with the neighbours for this timestep. Returns the
// message status: 0 ok, 1 MSG_ROLL (a failure requires rollback), 2 the
// run is shutting down.
int get_borders(fptr u, int rows, int cols, int me, int nodes, int step) {
	// Sends are buffered and idempotent; post them all first.
	if (me > 0) {
		int s1 = msg_send(me - 1, step, u, cols, cols); // my top real row
		if (s1 != 0) { return s1; }
	}
	if (me < nodes - 1) {
		int s2 = msg_send(me + 1, step, u, rows * cols, cols); // my bottom real row
		if (s2 != 0) { return s2; }
	}
	if (me > 0) {
		int r1 = msg_recv(me - 1, step, u, 0, cols); // into top ghost row
		if (r1 != 0) { return r1; }
	}
	if (me < nodes - 1) {
		int r2 = msg_recv(me + 1, step, u, (rows + 1) * cols, cols); // bottom ghost
		if (r2 != 0) { return r2; }
	}
	return 0;
}

// One Jacobi relaxation step: v gets the 4-neighbour average of u; global
// boundary cells are held fixed.
void do_computation(fptr u, fptr v, int rows, int cols, int me, int nodes) {
	for (int i = 1; i <= rows; i += 1) {
		for (int j = 0; j < cols; j += 1) {
			int boundary = 0;
			if (me == 0 && i == 1) { boundary = 1; }
			if (me == nodes - 1 && i == rows) { boundary = 1; }
			if (j == 0 || j == cols - 1) { boundary = 1; }
			if (boundary == 1) {
				v[i * cols + j] = u[i * cols + j];
			} else {
				v[i * cols + j] = 0.25 * (u[(i - 1) * cols + j] + u[(i + 1) * cols + j]
					+ u[i * cols + j - 1] + u[i * cols + j + 1]);
			}
		}
	}
}

// Checksum over the real rows, scaled to an integer exit code.
int checksum(fptr u, int rows, int cols) {
	float sum = 0.0;
	for (int i = 1; i <= rows; i += 1) {
		for (int j = 0; j < cols; j += 1) {
			sum += u[i * cols + j];
		}
	}
	return int(sum / float(rows * cols) * 1000.0);
}

int main() {
	int nodes = getarg(0);
	int rows = getarg(1);
	int cols = getarg(2);
	int timesteps = getarg(3);
	int checkpoint_interval = getarg(4);
	int me = node_id();

	fptr u = falloc((rows + 2) * cols);
	fptr v = falloc((rows + 2) * cols);
	init_grid(u, rows, cols, me);
	init_grid(v, rows, cols, me);

	// Figure 2's simplified speculative main loop.
	int specid = speculate();
	int step = 1;
	while (step <= timesteps) {
		/* Get boundary values from neighbors. May have to rollback. */
		int err = get_borders(u, rows, cols, me, nodes, step);
		if (err == 1) {
			retry(specid); // MSG_ROLL: roll back to the last speculation
		}
		if (err == 2) {
			return -1; // shutdown
		}
		/* Perform the computation. */
		do_computation(u, v, rows, cols, me, nodes);
		fptr tmp = u;
		u = v;
		v = tmp;
		/* Save a checkpoint if it's time. */
		if (step % checkpoint_interval == 0) {
			commit(specid);            /* Save the current speculation */
			ptr name = ck_name();
			migrate(name);             /* Save checkpoint to file */
			msg_gc(step);              /* Borders before this step are dead */
			specid = speculate();      /* Start a new speculation */
		}
		step += 1;
	}
	commit(specid);
	return checksum(u, rows, cols);
}
`

func (grid) Program(p workload.Params) (*fir.Program, error) {
	return lang.Compile(gridSource, externSigs())
}

func (grid) NodeArgs(p workload.Params) []int64 {
	return []int64{int64(p.Nodes), int64(p.Size), int64(p.Aux), int64(p.Steps), int64(p.CheckpointInterval)}
}

func (grid) StartNodes(p workload.Params) []int64 { return workload.Range(p.Nodes) }
func (grid) SpareNodes(p workload.Params) []int64 { return nil }

func (grid) CheckpointName(node int64) string { return fmt.Sprintf("grid-ck-%d", node) }

func (g grid) Externs(p workload.Params, node int64) rt.Registry {
	return workload.CkExtern(g.CheckpointName(node))
}

// gridShape is what the reference depends on.
type gridShape struct{ nodes, rows, cols, steps int }

// gridRefs memoizes Reference per shape: the oracle is pure, and every
// verification of the same configuration replays it, so a verify after
// the first is a lookup. Cached maps are shared; callers only read them.
var gridRefs sync.Map // gridShape -> map[int64]int64

// Reference runs the identical computation sequentially in Go, replaying
// the same floating-point operations in the same order, and returns the
// expected checksum (halt code) per node.
func (grid) Reference(p workload.Params) map[int64]int64 {
	shape := gridShape{p.Nodes, p.Size, p.Aux, p.Steps}
	if v, ok := gridRefs.Load(shape); ok {
		return v.(map[int64]int64)
	}
	out := gridReference(shape)
	gridRefs.Store(shape, out)
	return out
}

func gridReference(s gridShape) map[int64]int64 {
	rows, cols := s.rows, s.cols
	total := s.nodes * rows
	// Global grid with one ghost row above and below, initialised like the
	// per-node ghosts so step-1 edge reads match. Go's % agrees with
	// MojC's for the negative ghost row gr = -1.
	initial := func(gr, j int) float64 { return float64((gr*31 + j*17) % 100) }
	u := make([][]float64, total+2)
	v := make([][]float64, total+2)
	for i := range u {
		u[i] = make([]float64, cols)
		v[i] = make([]float64, cols)
		for j := 0; j < cols; j++ {
			u[i][j] = initial(i-1, j)
			v[i][j] = initial(i-1, j)
		}
	}
	for step := 1; step <= s.steps; step++ {
		for gi := 1; gi <= total; gi++ {
			for j := 0; j < cols; j++ {
				if gi == 1 || gi == total || j == 0 || j == cols-1 {
					v[gi][j] = u[gi][j]
				} else {
					v[gi][j] = 0.25 * (u[gi-1][j] + u[gi+1][j] + u[gi][j-1] + u[gi][j+1])
				}
			}
		}
		u, v = v, u
	}
	out := make(map[int64]int64, s.nodes)
	for n := 0; n < s.nodes; n++ {
		sum := 0.0
		for i := 1; i <= rows; i++ {
			for j := 0; j < cols; j++ {
				sum += u[n*rows+i][j]
			}
		}
		out[int64(n)] = int64(sum / float64(rows*cols) * 1000.0)
	}
	return out
}

func (g grid) Verify(p workload.Params, nodes map[int64]workload.NodeResult) error {
	return workload.VerifyHalted(g.Reference(p), nodes)
}
