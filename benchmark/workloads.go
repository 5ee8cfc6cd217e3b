package main

import (
	"fmt"
	"math/rand"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/fabnet"
	"fabricsim/internal/gateway"
	"fabricsim/internal/policy"
)

// timeScale is fixed: at 0.1 this box reads the OR validate cap as 285
// instead of 300 and one open-loop run in three shows spurious ordering
// timeouts; at 0.25 runs agree within 1 % and the process stays under
// 35 % of two cores, so results are bound by the model, not the host.
const timeScale = 0.25

// retryAttempts and retryBackoff are the conflict-retry settings of the
// contended workload. The untraced run hands them to the gateway's own
// retry loop; the traced run, which drives the staged API directly,
// applies the same bounds in the benchmark's driver.
const (
	retryAttempts = 3
	retryBackoff  = 20 * time.Millisecond
)

// workload is one fixed topology plus the load applied to it.
type workload struct {
	name string
	// why is the one-line reason the workload exists (README and
	// BENCHMARK.json carry the same sentence).
	why string
	// topology returns the network configuration; dir is a scratch
	// directory for file-backed storage.
	topology func(seed int64, dir string) fabnet.Config
	// window is the closed-loop in-flight window per client, sized so
	// in-flight ÷ capacity stays near 1.7 model-seconds, well under the
	// 3 s ordering timeout.
	window int
	// openRate is the open-loop arrival rate in model tps, about two
	// thirds of the workload's capacity.
	openRate float64
	// referenceTPS is the paper's validate-phase cap for this topology,
	// zero where the paper gives none.
	referenceTPS float64
	// smallbank selects the SmallBank operation mix over zipfAccounts
	// accounts; otherwise every transaction writes one fresh key.
	smallbank bool
}

const (
	zipfAccounts = 10000
	zipfS        = 1.2
)

var workloads = []workload{
	{
		name: "or_solo",
		why:  "paper baseline: Solo, 4 orgs, OR, fresh keys; the serial validate phase does almost all the work (reference 300 tps)",
		topology: func(int64, string) fabnet.Config {
			return fabnet.Config{
				Orderer:           fabnet.Solo,
				NumEndorsingPeers: 4,
				NumClients:        8,
				Policy:            policy.OrOverPeers(4),
			}
		},
		window:       64,
		openRate:     200,
		referenceTPS: 300,
	},
	{
		name: "and5_raft",
		why:  "paper AND finding: Raft, 5 orgs, AND5; five endorsements per envelope, VSCC per-signature cost sets the cap (reference 200-210 tps)",
		topology: func(int64, string) fabnet.Config {
			return fabnet.Config{
				Orderer:           fabnet.Raft,
				NumOrderers:       3,
				NumEndorsingPeers: 5,
				NumClients:        10,
				Policy:            policy.AndOverPeers(5),
			}
		},
		window:       32,
		openRate:     140,
		referenceTPS: 205,
	},
	{
		name: "smallbank_kafka",
		why:  "contended: Kafka, SmallBank over 10000 Zipf(1.2) accounts, reorder, retry, committer pool 4; reads beside writes, so rwdep, early abort, MVCC aborts and retries all occur",
		topology: func(seed int64, _ string) fabnet.Config {
			return fabnet.Config{
				Orderer:           fabnet.Kafka,
				NumOrderers:       3,
				NumKafkaBrokers:   3,
				NumZooKeepers:     3,
				NumEndorsingPeers: 4,
				NumClients:        8,
				Policy:            policy.OrOverPeers(4),
				Reorder:           true,
				Retry: gateway.RetryConfig{
					MaxAttempts:    retryAttempts,
					InitialBackoff: retryBackoff,
					Jitter:         0.2,
					Seed:           seed,
				},
				CommitterPool: 4,
				CommitDepth:   2,
			}
		},
		window:    32,
		openRate:  150,
		smallbank: true,
	},
	{
		name: "durable_gossip",
		why:  "storage and dissemination: Raft with file WAL, file ledger and state WAL, gossip; same 300 tps model cap as or_solo, so any gap is the storage and gossip cost",
		topology: func(_ int64, dir string) fabnet.Config {
			return fabnet.Config{
				Orderer:           fabnet.Raft,
				NumOrderers:       3,
				NumEndorsingPeers: 2,
				EndorsersPerOrg:   2,
				NumClients:        8,
				Policy:            policy.OrOverPeers(2),
				Gossip:            fabnet.GossipConfig{Enabled: true},
				// No checkpoint inside a run (a run cuts ~250 blocks).
				// At the default interval of 64 one or two land in a
				// measured window; each exports the whole state and
				// index, stalls every peer for 50-100 ms of host time,
				// and whether it was one or two moved
				// commit_latency_p99_s by 25 % from run to run. The
				// layer replay's ledger.commit_file_* keeps the default
				// interval, so checkpoint cost is still measured there.
				Storage: fabnet.StorageConfig{Backend: "file", Dir: dir, CheckpointInterval: 4096},
			}
		},
		window:       64,
		openRate:     200,
		referenceTPS: 300,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config completes the topology with the settings every workload
// shares: the calibrated cost model at the fixed scale and the
// in-memory transport (fabnet's default).
func (w workload) config(seed int64, dir string) fabnet.Config {
	cfg := w.topology(seed, dir)
	cfg.Model = costmodel.Default(timeScale)
	return cfg
}

// call is one generated transaction: the inputs the program receives.
type call struct {
	chaincode string
	fn        string
	args      [][]byte
}

// generator produces one client's transactions from the run seed, so
// the same seed always offers the same inputs in the same per-client
// order.
type generator struct {
	w      workload
	prefix string
	seq    int
	rng    *rand.Rand
	zipf   *rand.Zipf
}

func newGenerator(w workload, seed int64, client int) *generator {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 1))
	g := &generator{w: w, prefix: fmt.Sprintf("k%d.%d.", seed, client), rng: rng}
	if w.smallbank {
		g.zipf = rand.NewZipf(rng, zipfS, 1, zipfAccounts-1)
	}
	return g
}

var oneByte = []byte("a") // the paper's default transaction size

func (g *generator) next() call {
	g.seq++
	if !g.w.smallbank {
		key := fmt.Sprintf("%s%d", g.prefix, g.seq)
		return call{chaincode: fabnet.ChaincodeBench, fn: "write", args: [][]byte{[]byte(key), oneByte}}
	}
	account := func() []byte { return []byte(fmt.Sprintf("a%d", g.zipf.Uint64())) }
	// The write-heavy read-modify-write mix of the SmallBank suite.
	acct := account()
	c := call{chaincode: fabnet.ChaincodeSmallBank}
	switch r := g.rng.Intn(100); {
	case r < 15:
		c.fn, c.args = "deposit", [][]byte{acct, []byte("10")}
	case r < 30:
		c.fn, c.args = "transact", [][]byte{acct, []byte("10")}
	case r < 55:
		c.fn, c.args = "sendpayment", [][]byte{acct, account(), []byte("5")}
	case r < 70:
		c.fn, c.args = "writecheck", [][]byte{acct, []byte("5")}
	case r < 85:
		c.fn, c.args = "amalgamate", [][]byte{acct, account()}
	default:
		c.fn, c.args = "query", [][]byte{acct}
	}
	return c
}
