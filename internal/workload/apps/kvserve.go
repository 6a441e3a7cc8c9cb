package apps

import (
	"fmt"

	"repro/internal/fir"
	"repro/internal/lang"
	"repro/internal/rt"
	"repro/internal/workload"
)

// kvserve is a replicated key-value serving workload: node 0 is the
// front-end driving a deterministic client request stream, nodes
// 1..Nodes-2 are shard servers, node Nodes-1 is a spare. Every request
// targets a key; the owning shard applies it (writes update the primary
// store, reads return the current value), replies to the front-end, and
// forwards each write to the key's backup shard, which applies it to its
// replica store — so the digests prove both the serving order and the
// replication traffic were bit-exact. speculate/commit wraps request
// batches; at the batch given by Aux (a checkpoint boundary) the hot
// shard — shard 1, which the skewed key distribution sends about half of
// all traffic to — live-migrates to the spare node while the front-end
// and the other shards reroute to it, mid-run, without dropping a
// request.
//
// Size = requests per batch; Steps = batches; Aux = migration batch.
// The key space is fixed at 16 keys; key k is owned by shard
// 1 + (k % shards) and backed up by the next shard in the ring.
type kvserve struct{}

func (kvserve) Name() string { return "kvserve" }

func (kvserve) Description() string {
	return "replicated KV store under a deterministic client stream: speculative request batches, write replication, hot-shard migration to a spare (Size=requests/batch, Aux=migration batch)"
}

func (kvserve) Defaults() workload.Params {
	return workload.Params{Nodes: 4, Size: 6, Aux: 4, Steps: 8, CheckpointInterval: 2}
}

func (kvserve) Validate(p workload.Params) error {
	shards := p.Nodes - 2
	switch {
	case shards < 2:
		return fmt.Errorf("kvserve: need a front-end, at least two shards and a spare, have %d nodes", p.Nodes)
	case p.Size < 1:
		return fmt.Errorf("kvserve: batch size %d too small", p.Size)
	case p.Steps < 1:
		return fmt.Errorf("kvserve: need at least one batch, have %d", p.Steps)
	case p.CheckpointInterval < 1:
		return fmt.Errorf("kvserve: checkpoint interval %d must be positive", p.CheckpointInterval)
	case p.Aux < 1 || p.Aux > p.Steps:
		return fmt.Errorf("kvserve: migration batch %d must be within the %d batches", p.Aux, p.Steps)
	case p.Aux%p.CheckpointInterval != 0:
		return fmt.Errorf("kvserve: migration batch %d must be a checkpoint boundary (interval %d)", p.Aux, p.CheckpointInterval)
	}
	return nil
}

// kvserveSource is the per-node MojC program. Arguments: getarg(0)=
// nodes, 1=requests per batch, 2=batches, 3=checkpoint_interval,
// 4=migration batch. Request t occupies three tags: t*3 (request),
// t*3+1 (reply), t*3+2 (write replication). Every node recomputes the
// request stream locally (SPMD), so shards know which requests they own
// or back up without any coordination traffic.
const kvserveSource = `
// The node hosting shard s during batch b: the hot shard (1) moves to
// the spare after the migration batch.
int shard_node(int s, int b, int spare, int mb) {
	if (s == 1) {
		if (b > mb) {
			return spare;
		}
	}
	return s;
}

int req_x(int t) {
	return ((t * 2654435761) + 12345) % 1000003;
}

// Request t's key: skewed so about half of all requests land on keys
// owned by shard 1 — the hot shard the migration moves.
int req_key(int t, int shards) {
	int x = req_x(t);
	int k = x % 16;
	if ((x % 4) < 2) {
		k = k - (k % shards);
	}
	return k;
}

// 1 = write, 0 = read.
int req_wr(int t) {
	if ((req_x(t) % 3) == 0) {
		return 1;
	}
	return 0;
}

int req_val(int t) {
	return ((req_x(t) * 7) + 3) % 100003;
}

int main() {
	int nodes = getarg(0);
	int size = getarg(1);
	int batches = getarg(2);
	int cki = getarg(3);
	int mb = getarg(4);
	int shards = nodes - 2;
	int spare = nodes - 1;
	int me = node_id(); // shard identity: stable across the migration

	ptr buf = alloc(3);
	ptr store = alloc(16);
	ptr replica = alloc(16);
	for (int k = 0; k < 16; k += 1) {
		store[k] = 0;
		replica[k] = 0;
	}
	int served = 0;
	int replicated = 0;
	int respsum = 0;
	int specid = speculate();
	int b = 1;
	while (b <= batches) {
		int err = 0;
		if (me == 0) {
			// Front-end: scatter this batch's requests to their owners...
			for (int j = 0; j < size; j += 1) {
				int t = ((b - 1) * size) + j;
				int k = req_key(t, shards);
				int ow = 1 + (k % shards);
				buf[0] = req_wr(t);
				buf[1] = k;
				buf[2] = req_val(t);
				err = msg_send(shard_node(ow, b, spare, mb), t * 3, buf, 0, 3);
				if (err != 0) { break; }
			}
			// ...then gather replies in request order.
			if (err == 0) {
				for (int j = 0; j < size; j += 1) {
					int t = ((b - 1) * size) + j;
					int k = req_key(t, shards);
					int ow = 1 + (k % shards);
					err = msg_recv(shard_node(ow, b, spare, mb), (t * 3) + 1, buf, 0, 1);
					if (err != 0) { break; }
					respsum = ((respsum * 31) + buf[0]) % 1000000007;
				}
			}
		} else {
			// Shard: serve owned requests, apply replicated writes, in
			// global request order.
			for (int j = 0; j < size; j += 1) {
				int t = ((b - 1) * size) + j;
				int k = req_key(t, shards);
				int ow = 1 + (k % shards);
				int bk = 1 + (((k % shards) + 1) % shards);
				int wr = req_wr(t);
				if (ow == me) {
					err = msg_recv(0, t * 3, buf, 0, 3);
					if (err != 0) { break; }
					if (buf[0] == 1) {
						store[buf[1]] = buf[2];
					}
					buf[0] = store[k];
					err = msg_send(0, (t * 3) + 1, buf, 0, 1);
					if (err != 0) { break; }
					served += 1;
					if (wr == 1) {
						buf[0] = k;
						buf[1] = req_val(t);
						err = msg_send(shard_node(bk, b, spare, mb), (t * 3) + 2, buf, 0, 2);
						if (err != 0) { break; }
					}
				} else {
					if (bk == me) {
						if (wr == 1) {
							err = msg_recv(shard_node(ow, b, spare, mb), (t * 3) + 2, buf, 0, 2);
							if (err != 0) { break; }
							replica[buf[0]] = buf[1];
							replicated += 1;
						}
					}
				}
			}
		}
		if (err == 1) {
			retry(specid); // MSG_ROLL: re-run the batch from the speculation
		}
		if (err == 2) {
			return -1; // shutdown
		}
		if (b % cki == 0) {
			commit(specid);
			if (me == 1) {
				if (b == mb) {
					// Hand the hot shard off to the spare node mid-run. The
					// post-migration speculation below is the rollback
					// point, so no retry ever re-crosses the migrate.
					migrate(spare_target());
				}
			}
			ptr name = ck_name();
			migrate(name);
			msg_gc(b * size * 3); // requests before the next batch are dead
			specid = speculate();
		}
		b += 1;
	}
	commit(specid);
	if (me == 0) {
		return respsum;
	}
	int digest = (served * 131) + (replicated * 17);
	for (int k = 0; k < 16; k += 1) {
		digest = ((digest * 31) + store[k] + (7 * replica[k]) + 1) % 1000000007;
	}
	return digest;
}
`

func (kvserve) Program(p workload.Params) (*fir.Program, error) {
	return lang.Compile(kvserveSource, externSigs("spare_target"))
}

func (kvserve) NodeArgs(p workload.Params) []int64 {
	return []int64{int64(p.Nodes), int64(p.Size), int64(p.Steps), int64(p.CheckpointInterval), int64(p.Aux)}
}

// StartNodes are the front-end and the shard nodes; the spare exists
// only to be migrated to.
func (kvserve) StartNodes(p workload.Params) []int64 { return workload.Range(p.Nodes - 1) }

func (kvserve) SpareNodes(p workload.Params) []int64 { return []int64{int64(p.Nodes - 1)} }

func (kvserve) CheckpointName(node int64) string {
	return fmt.Sprintf("kvserve-ck-%d", node)
}

func (k kvserve) Externs(p workload.Params, node int64) rt.Registry {
	reg := workload.CkExtern(k.CheckpointName(node))
	reg["spare_target"] = workload.StrExtern(fmt.Sprintf("node://%d", p.Nodes-1))
	return reg
}

// kvReq mirrors the MojC request-stream functions exactly.
func kvReq(t, shards int64) (key, wr, val int64) {
	x := ((t * 2654435761) + 12345) % 1000003
	key = x % 16
	if x%4 < 2 {
		key -= key % shards
	}
	wr = 0
	if x%3 == 0 {
		wr = 1
	}
	val = ((x * 7) + 3) % 100003
	return key, wr, val
}

// Reference replays the serving run sequentially: per-shard primary and
// replica stores, serve/replication counters, and the front-end's reply
// checksum, all folded in global request order.
func (kvserve) Reference(p workload.Params) map[int64]int64 {
	shards := int64(p.Nodes - 2)
	spare := int64(p.Nodes - 1)
	stores := make(map[int64][]int64, shards)
	replicas := make(map[int64][]int64, shards)
	served := make(map[int64]int64, shards)
	replicated := make(map[int64]int64, shards)
	for s := int64(1); s <= shards; s++ {
		stores[s] = make([]int64, 16)
		replicas[s] = make([]int64, 16)
	}
	respsum := int64(0)
	for t := int64(0); t < int64(p.Steps*p.Size); t++ {
		key, wr, val := kvReq(t, shards)
		ow := 1 + key%shards
		bk := 1 + ((key%shards)+1)%shards
		if wr == 1 {
			stores[ow][key] = val
			replicas[bk][key] = val
			replicated[bk]++
		}
		served[ow]++
		respsum = ((respsum * 31) + stores[ow][key]) % 1000000007
	}
	out := make(map[int64]int64, p.Nodes-1)
	out[0] = respsum
	for s := int64(1); s <= shards; s++ {
		digest := (served[s] * 131) + (replicated[s] * 17)
		for k := 0; k < 16; k++ {
			digest = ((digest * 31) + stores[s][k] + (7 * replicas[s][k]) + 1) % 1000000007
		}
		node := s
		if s == 1 {
			node = spare // the hot shard halts on the spare it migrated to
		}
		out[node] = digest
	}
	return out
}

func (k kvserve) Verify(p workload.Params, nodes map[int64]workload.NodeResult) error {
	if err := workload.VerifyHalted(k.Reference(p), nodes); err != nil {
		return err
	}
	st, ok := nodes[1]
	if !ok {
		return fmt.Errorf("kvserve: hot shard node 1 reported no final state")
	}
	if st.Status != rt.StatusMigrated {
		return fmt.Errorf("kvserve: hot shard node 1 finished %s, want migrated to spare node %d", st.Status, p.Nodes-1)
	}
	return nil
}
