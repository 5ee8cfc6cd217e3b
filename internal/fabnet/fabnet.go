// Package fabnet assembles complete emulated Fabric networks from a
// topology configuration: organizations with CAs, endorsing peers that
// also validate and commit, an ordering service (Solo, Kafka, or Raft),
// and SDK clients — the role the paper's 20-machine cluster and its
// deployment scripts play. Every node gets its own simulated CPU and
// attaches to a latency/bandwidth-modeled network.
package fabnet

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fabricsim/internal/ca"
	"fabricsim/internal/chaincode"
	"fabricsim/internal/chaos"
	"fabricsim/internal/costmodel"
	"fabricsim/internal/fabcrypto"
	"fabricsim/internal/gateway"
	"fabricsim/internal/gossip"
	"fabricsim/internal/kafka"
	"fabricsim/internal/ledger"
	"fabricsim/internal/metrics"
	"fabricsim/internal/msp"
	"fabricsim/internal/orderer"
	"fabricsim/internal/orderer/blockcutter"
	"fabricsim/internal/peer"
	"fabricsim/internal/policy"
	"fabricsim/internal/raft"
	"fabricsim/internal/simcpu"
	"fabricsim/internal/trace"
	"fabricsim/internal/transport"
	"fabricsim/internal/types"
)

// OrdererType selects the ordering service implementation.
type OrdererType string

// The three ordering services the paper compares.
const (
	Solo  OrdererType = "solo"
	Kafka OrdererType = "kafka"
	Raft  OrdererType = "raft"
)

// Config describes a network topology.
type Config struct {
	// Orderer selects the ordering service (default Solo).
	Orderer OrdererType
	// NumOrderers is the OSN count (default 1; Solo forces 1).
	NumOrderers int
	// NumKafkaBrokers sizes the Kafka substrate (default 3, the paper's
	// baseline). Each channel's partition is replicated on three
	// brokers, or on every broker when there are fewer.
	NumKafkaBrokers int
	// NumZooKeepers is read by nothing: ZooKeeper is off Fabric's
	// transaction path and not modeled. It stays only because the
	// benchmark sets it, and goes with the benchmark's next instrument
	// change.
	NumZooKeepers int
	// NumEndorsingPeers is the number of endorsing organizations
	// (Org1 ... OrgN, default 1), each contributing one org principal
	// (Org<i>.peer0) to endorsement policies.
	NumEndorsingPeers int
	// EndorsersPerOrg deploys this many interchangeable endorsing
	// replicas per organization (default 1). Replicas share the org
	// principal's MSP identity ("Org1.peer0") under distinct keys; the
	// gateway balancer picks exactly one replica per required principal
	// for every transaction, so endorsement capacity scales
	// horizontally without touching channel policies.
	EndorsersPerOrg int
	// Balancer selects the gateways' replica-routing strategy by name:
	// "roundrobin" (default), "random", "p2c" (power-of-two-choices
	// over in-flight counts), or "ewma" (least expected latency). One
	// balancer and one load tracker are shared across all gateways.
	Balancer string
	// PerturbedEndorsers, when positive, deploys the last N endorsing
	// replicas with PerturbedEndorserCores cores instead of
	// Model.PeerCores — the heterogeneous-hardware scenario the
	// load-aware balancers exist for. Bench/chaos knob.
	PerturbedEndorsers int
	// NumClients is the workload-generator process count; the default
	// (0) provisions one client per endorsing peer, matching the
	// paper's per-peer load split (Fig. 1).
	NumClients int
	// Policy is the channel endorsement policy (default: OR over every
	// endorsing org).
	Policy policy.Policy
	// BatchSize and BatchTimeout are the block-cutting parameters in
	// model time (defaults 100 and 1s, the paper's settings).
	BatchSize    int
	BatchTimeout time.Duration
	// Reorder enables Fabric++-style conflict-aware ordering: every cut
	// batch is reordered to minimize intra-block MVCC conflicts,
	// transactions trapped in read-write cycles are early-aborted before
	// any peer validates them, and committers fan state application out
	// across true dependency chains. Off preserves FIFO blocks byte for
	// byte.
	Reorder bool
	// Retry configures the gateways' transparent conflict-retry loop
	// (MVCC conflicts and early aborts re-endorse and resubmit with
	// exponential backoff). Zero value disables retry.
	Retry gateway.RetryConfig
	// Model is the calibrated cost model (use costmodel.Default; the
	// zero value means costmodel.Default(1)).
	Model costmodel.Model
	// VerifyCrypto enables real signature verification on every path,
	// over ECDSA identities; without it identities sign with the cheaper
	// HMAC scheme, and only the cost model charges for verification.
	VerifyCrypto bool
	// Collector receives metrics from every node; may be nil. Per-block
	// events that every node sees (block cuts, commit stages) are
	// recorded by OSN 1 and peer 1 only.
	Collector *metrics.Collector
	// Tracer records end-to-end transaction spans across every layer
	// (gateway stages, endorser, orderer, raft, commit pipeline); nil (the
	// default) disables tracing at zero cost. Commit spans and block
	// origins are recorded by peer 1 only, since every peer validates
	// every block.
	Tracer *trace.Tracer
	// ExtraChaincodes installs chaincodes beyond the benchmark KV store.
	ExtraChaincodes []chaincode.Chaincode
	// ChannelID is set by Build to the first channel's ID, the default
	// channel of every node.
	ChannelID string
	// Channels is the channel count, the network's sharding axis: Build
	// deploys channels "ch1".."chN", each with its own ordering lane
	// (Kafka partition or Raft group), its own per-peer ledger and
	// commit pipeline, and its own chain numbering, so channels order
	// and commit concurrently. All share Policy. 0 or 1 deploys the
	// single channel "perf".
	Channels int
	// CommitterPool overrides Model.CommitterPool when positive: the
	// parallel state-apply workers each peer's commit pipeline fans
	// conflict-free transaction groups across.
	CommitterPool int
	// CommitDepth overrides Model.CommitDepth when positive: the blocks
	// each peer channel's commit pipeline holds in flight.
	CommitDepth int
	// Gossip configures peer-to-peer block dissemination. When enabled,
	// only one elected leader peer per org subscribes to the orderer's
	// deliver service; org members spread blocks by push gossip and
	// converge through anti-entropy, holding orderer egress at O(orgs)
	// instead of O(peers).
	Gossip GossipConfig
	// Storage selects and tunes the peers' ledger storage engines.
	Storage StorageConfig
	// RaftCompactThreshold tunes committed-prefix compaction of the
	// OSNs' Raft logs: a node compacts once the applied prefix above the
	// log's base reaches this many entries. 0 keeps the raft package
	// default (128); negative disables compaction.
	RaftCompactThreshold int
	// UseTCP runs every node on real loopback TCP sockets (gob framing)
	// instead of the in-memory emulated network. Latency/bandwidth then
	// come from the real kernel path; used by cmd/fabricnet.
	UseTCP bool
	// WANMatrix applies a canned multi-region link matrix by name
	// ("wan2", "wan3" — see transport.NamedMatrix) and labels nodes with
	// the matrix's regions, round-robin by org index (orderers, clients,
	// and brokers rotate through the same list). Cross-region links then
	// carry WAN latencies (model time in-memory, wall time on TCP).
	// Empty means one unlabeled region.
	WANMatrix string
}

// GossipConfig tunes the gossip dissemination layer. All durations are
// model time (scaled by the cost model before reaching the nodes).
type GossipConfig struct {
	// Enabled switches dissemination from per-peer direct deliver to
	// org-leader deliver + gossip.
	Enabled bool
	// Fanout is how many org members each fresh block is pushed to
	// (default 3).
	Fanout int
	// AntiEntropyInterval is the digest-exchange period (default 500ms
	// model time).
	AntiEntropyInterval time.Duration
	// LeaderLease is the leader heartbeat lease (default 2s model time);
	// a dead leader is replaced roughly one lease after its last beat.
	LeaderLease time.Duration
}

// StorageConfig selects and tunes the peers' ledger storage engines
// and (for Raft ordering) the OSNs' hard-state stores.
type StorageConfig struct {
	// Backend is the ledger storage engine every peer uses: "mem"
	// (default, volatile) or "file" (persistent; restarted peers reopen
	// their ledgers from checkpoint + block-store tail). Under Raft
	// ordering it also selects OSN hard-state persistence: "file" OSNs
	// keep term/vote/log in a WAL under Dir/<osnID>/raft/<channel> and
	// reload it on RestartOrderer; "mem" OSNs keep an in-process store
	// the network retains across restarts.
	Backend string
	// Dir roots file-backed storage; each peer stores its channels under
	// Dir/<nodeID>/<channel>. Required when any peer (or Raft OSN) uses
	// "file".
	Dir string
	// CheckpointInterval is the file backend's checkpoint cadence in
	// blocks (0 = ledger.DefaultCheckpointInterval).
	CheckpointInterval uint64
	// SnapshotThreshold enables gossip snapshot-then-tail repair: a peer
	// at least this many blocks behind bootstraps from a peer's ledger
	// snapshot instead of replaying the gap block by block. 0 defaults
	// to the checkpoint interval when gossip is enabled; negative
	// disables the path.
	SnapshotThreshold int
	// PerPeer overrides the storage backend for individual node IDs —
	// mixed-backend topologies (one durable peer among mem peers). OSN
	// IDs ("osn1", ...) may appear here too, selecting that orderer's
	// Raft store backend.
	PerPeer map[string]string
}

// PerturbedEndorserCores is the core count of the replicas
// Config.PerturbedEndorsers slows down: a quarter of the default
// Model.PeerCores.
const PerturbedEndorserCores = 2

func (c *Config) applyDefaults() {
	if c.Orderer == "" {
		c.Orderer = Solo
	}
	if c.Orderer == Solo {
		c.NumOrderers = 1
	}
	if c.NumOrderers < 1 {
		c.NumOrderers = 1
	}
	if c.NumKafkaBrokers < 1 {
		c.NumKafkaBrokers = 3
	}
	if c.NumEndorsingPeers < 1 {
		c.NumEndorsingPeers = 1
	}
	if c.EndorsersPerOrg < 1 {
		c.EndorsersPerOrg = 1
	}
	if c.NumClients < 1 {
		c.NumClients = c.NumEndorsingPeers
	}
	if c.BatchSize < 1 {
		c.BatchSize = 100
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = time.Second
	}
	if c.Policy == nil {
		c.Policy = policy.OrOverPeers(c.NumEndorsingPeers)
	}
	c.ChannelID = c.channelIDs()[0]
	if c.Gossip.Enabled {
		if c.Gossip.Fanout < 1 {
			c.Gossip.Fanout = 3
		}
		if c.Gossip.AntiEntropyInterval <= 0 {
			c.Gossip.AntiEntropyInterval = 500 * time.Millisecond
		}
		if c.Gossip.LeaderLease <= 0 {
			c.Gossip.LeaderLease = 2 * time.Second
		}
	}
	if c.Storage.Backend == "" {
		c.Storage.Backend = "mem"
	}
	if c.Storage.SnapshotThreshold == 0 && c.Gossip.Enabled {
		// Snapshot-then-tail kicks in once a peer is a full checkpoint
		// interval behind — below that, block replay is cheaper than
		// shipping the whole state.
		iv := c.Storage.CheckpointInterval
		if iv == 0 {
			iv = ledger.DefaultCheckpointInterval
		}
		c.Storage.SnapshotThreshold = int(iv)
	}
	if c.Model.TimeScale == 0 {
		c.Model = costmodel.Default(1)
	}
	if c.CommitterPool > 0 {
		c.Model.CommitterPool = c.CommitterPool
	}
	if c.CommitDepth > 0 {
		c.Model.CommitDepth = c.CommitDepth
	}
}

// channelIDs returns the names of the channels Build deploys, in order:
// "ch1".."chN" for more than one channel, else the single "perf".
func (c *Config) channelIDs() []string {
	if c.Channels < 2 {
		return []string{"perf"}
	}
	ids := make([]string, c.Channels)
	for i := range ids {
		ids[i] = fmt.Sprintf("ch%d", i+1)
	}
	return ids
}

// Network is a built, startable Fabric network.
type Network struct {
	Cfg Config

	// Transport is the in-memory network (nil when UseTCP is set).
	Transport *transport.Network
	// TCPNet is the TCP registry (nil unless UseTCP is set).
	TCPNet   *transport.TCPNetwork
	Gateways []*gateway.Gateway
	Peers    []*peer.Peer
	Orderers []*orderer.Orderer
	MSP      *msp.MSP
	CAs      map[string]*ca.CA

	register func(id string) (transport.Endpoint, error)

	kafkaCluster *kafka.Cluster
	// raftCons holds each OSN's Raft consenter (indexed like Orderers;
	// nil entries for non-Raft ordering).
	raftCons []*orderer.RaftConsenter
	cpus     []*simcpu.CPU
	// nodeCPUs indexes each node's simulated CPU by node ID (read-only
	// after Build; RestartPeer reuses the same CPU object, so a chaos
	// throttle survives a peer restart like a real machine's core count
	// would).
	nodeCPUs map[string]*simcpu.CPU
	// orgMembers / orgOf record peer-org membership; regions records
	// node region labels, assigned round-robin from regionNames (the
	// WAN matrix's regions). All read-only after Build.
	orgMembers  map[string][]string
	orgOf       map[string]string
	regions     map[string]string
	regionNames []string
	// peerCfgs retains each peer's build configuration (indexed like
	// Peers) so RestartPeer can rebuild a crashed peer from scratch.
	peerCfgs []peer.Config
	// ordererCfgs / ordererIDs mirror peerCfgs for the ordering service
	// (indexed like Orderers) so RestartOrderer can rebuild an OSN under
	// its old identity.
	ordererCfgs []orderer.Config
	ordererIDs  []string
	// raftStores holds each OSN's per-channel hard-state stores (indexed
	// like Orderers; nil for non-Raft ordering). Mem stores are retained
	// here across restarts — the network plays the role of the disk.
	raftStores []map[string]raft.Store
	// brokerIDs retains the Kafka broker membership so a restarted OSN
	// can be handed a fresh Kafka client.
	brokerIDs []string
	started   bool

	chaosOnce sync.Once
	chaosCtl  *chaos.Controller
}

// ChaincodeBench is the installed name of the benchmark KV chaincode.
const ChaincodeBench = "bench"

// ChaincodeSmallBank is the installed name of the SmallBank contention
// chaincode (the workload package's "smallbank" profile drives it).
const ChaincodeSmallBank = "smallbank"

// Build constructs all nodes of the network without starting them.
func Build(cfg Config) (*Network, error) {
	cfg.applyDefaults()
	model := cfg.Model

	n := &Network{
		Cfg:        cfg,
		CAs:        make(map[string]*ca.CA),
		nodeCPUs:   make(map[string]*simcpu.CPU),
		orgMembers: make(map[string][]string),
		orgOf:      make(map[string]string),
		regions:    make(map[string]string),
	}
	if cfg.UseTCP {
		registerWireTypes()
		n.TCPNet = transport.NewTCPNetwork()
		n.register = func(id string) (transport.Endpoint, error) {
			return n.TCPNet.Register(id)
		}
	} else {
		n.Transport = transport.NewNetwork(transport.Config{
			Latency:   model.LinkLatency,
			Bandwidth: model.LinkBandwidth,
			TimeScale: model.TimeScale,
		})
		n.register = func(id string) (transport.Endpoint, error) {
			return n.Transport.Register(id)
		}
	}
	if cfg.WANMatrix != "" {
		matrix, regions, ok := transport.NamedMatrix(cfg.WANMatrix)
		if !ok {
			return nil, fmt.Errorf("fabnet: unknown WAN matrix %q", cfg.WANMatrix)
		}
		n.regionNames = regions
		n.Links().SetRegionProps(matrix)
	}

	// --- Identity plane: one CA per org plus orderer and client orgs ---
	orgs := []string{"OrdererOrg", "ClientOrg"}
	for i := 1; i <= cfg.NumEndorsingPeers; i++ {
		orgs = append(orgs, fmt.Sprintf("Org%d", i))
	}
	scheme := fabcrypto.SchemeHMAC
	if cfg.VerifyCrypto {
		scheme = fabcrypto.SchemeECDSA
	}
	for _, org := range orgs {
		authority, err := ca.New(org, scheme)
		if err != nil {
			return nil, fmt.Errorf("fabnet: %w", err)
		}
		n.CAs[org] = authority
	}
	allCAs := make([]*ca.CA, 0, len(n.CAs))
	for _, a := range n.CAs {
		allCAs = append(allCAs, a)
	}
	n.MSP = msp.New(allCAs...)

	registry := chaincode.NewRegistry(
		chaincode.NewKVStore(ChaincodeBench),
		chaincode.NewSmallBank(ChaincodeSmallBank),
	)
	for _, cc := range cfg.ExtraChaincodes {
		registry.Install(cc)
	}
	channelIDs := cfg.channelIDs()

	newCPU := func(id string, cores int) *simcpu.CPU {
		c := simcpu.New(cores, model.TimeScale)
		n.cpus = append(n.cpus, c)
		n.nodeCPUs[id] = c
		return c
	}

	// --- Ordering service ---
	for i := 0; i < cfg.NumOrderers; i++ {
		id := fmt.Sprintf("osn%d", i+1)
		ep, err := n.register(id)
		if err != nil {
			return nil, fmt.Errorf("fabnet: %w", err)
		}
		n.assignRegion(id, i)
		ocfg := orderer.Config{
			ID:       id,
			Endpoint: ep,
			Cutter: blockcutter.Config{
				BatchSize:    cfg.BatchSize,
				BatchTimeout: cfg.BatchTimeout,
				Reorder:      cfg.Reorder,
			},
			Model:     model,
			CPU:       newCPU(id, model.OrdererCores),
			Channels:  channelIDs,
			Collector: cfg.Collector,
			Recorder:  i == 0,
			Tracer:    cfg.Tracer,
		}
		n.ordererIDs = append(n.ordererIDs, id)
		n.ordererCfgs = append(n.ordererCfgs, ocfg)
		n.Orderers = append(n.Orderers, orderer.New(ocfg))
	}
	n.raftStores = make([]map[string]raft.Store, cfg.NumOrderers)
	n.raftCons = make([]*orderer.RaftConsenter, cfg.NumOrderers)
	if cfg.Orderer == Kafka {
		if err := n.buildKafka(); err != nil {
			return nil, err
		}
	}
	for i, o := range n.Orderers {
		if err := n.openRaftStores(i); err != nil {
			return nil, err
		}
		if err := n.attachConsenter(i, o, n.ordererCfgs[i].Endpoint); err != nil {
			return nil, err
		}
	}

	// --- Peers ---
	// One certificate store per network: endorser certs must not leak
	// across networks in one process (two networks with colliding peer
	// IDs would otherwise silently share certificates). Replicated
	// endorsers register one certificate each under the shared org
	// principal.
	certs := peer.NewCertStore()
	peersByPrincipal := make(map[string][]string)
	type peerSpec struct {
		org    string
		orgIdx int // region round-robin index (all org replicas co-locate)
		nodeID string
		cores  int
	}
	var specs []peerSpec
	for i := 1; i <= cfg.NumEndorsingPeers; i++ {
		for r := 1; r <= cfg.EndorsersPerOrg; r++ {
			// Replica 1 keeps the classic "peer<i>" node ID so
			// single-replica topologies are wire-identical to before.
			nodeID := fmt.Sprintf("peer%d", i)
			if r > 1 {
				nodeID = fmt.Sprintf("peer%dr%d", i, r)
			}
			specs = append(specs, peerSpec{
				org:    fmt.Sprintf("Org%d", i),
				orgIdx: i - 1,
				nodeID: nodeID,
				cores:  model.PeerCores,
			})
		}
	}
	if cfg.PerturbedEndorsers > 0 {
		// Slow down the LAST endorsing replicas so "peer1" (the classic
		// observer/event peer) keeps its full capacity.
		slowed := 0
		for k := len(specs) - 1; k >= 0 && slowed < cfg.PerturbedEndorsers; k-- {
			specs[k].cores = PerturbedEndorserCores
			slowed++
		}
	}
	// Gossip membership: push gossip and leader election are org-scoped,
	// anti-entropy spans the whole peer set. Computed up front so every
	// peer's config can carry the full rosters.
	orgMembers := make(map[string][]string)
	allPeerIDs := make([]string, 0, len(specs))
	for _, spec := range specs {
		orgMembers[spec.org] = append(orgMembers[spec.org], spec.nodeID)
		allPeerIDs = append(allPeerIDs, spec.nodeID)
		n.orgMembers[spec.org] = append(n.orgMembers[spec.org], spec.nodeID)
		n.orgOf[spec.nodeID] = spec.org
	}
	for idx, spec := range specs {
		enrollment, err := n.CAs[spec.org].Enroll("peer0", ca.RolePeer)
		if err != nil {
			return nil, fmt.Errorf("fabnet: %w", err)
		}
		identity := msp.NewSigningIdentity(enrollment)
		certs.Register(identity.ID(), identity.Serialized())
		ep, err := n.register(spec.nodeID)
		if err != nil {
			return nil, fmt.Errorf("fabnet: %w", err)
		}
		n.assignRegion(spec.nodeID, spec.orgIdx)
		pcfg := peer.Config{
			ID:           spec.nodeID,
			Endpoint:     ep,
			Identity:     identity,
			MSP:          n.MSP,
			Registry:     registry,
			Policy:       cfg.Policy,
			Model:        model,
			CPU:          newCPU(spec.nodeID, spec.cores),
			OrdererID:    n.ordererIDs[idx%len(n.ordererIDs)],
			VerifyCrypto: cfg.VerifyCrypto,
			Certs:        certs,
			Channels:     channelIDs,
			Collector:    cfg.Collector,
			Tracer:       cfg.Tracer,
			Recorder:     idx == 0,
		}
		backend := cfg.Storage.Backend
		if override := cfg.Storage.PerPeer[spec.nodeID]; override != "" {
			backend = override
		}
		pcfg.StorageBackend = backend
		pcfg.CheckpointInterval = cfg.Storage.CheckpointInterval
		if backend == "file" {
			if cfg.Storage.Dir == "" {
				return nil, fmt.Errorf("fabnet: peer %s uses file storage but Storage.Dir is empty", spec.nodeID)
			}
			pcfg.StorageDir = filepath.Join(cfg.Storage.Dir, spec.nodeID)
		}
		if cfg.Gossip.Enabled {
			pcfg.Gossip = &gossip.Config{
				Org:                 spec.org,
				OrgMembers:          orgMembers[spec.org],
				ChannelPeers:        allPeerIDs,
				Fanout:              cfg.Gossip.Fanout,
				AntiEntropyInterval: model.ScaledDelay(cfg.Gossip.AntiEntropyInterval),
				LeaderLease:         model.ScaledDelay(cfg.Gossip.LeaderLease),
				Seed:                int64(idx + 1),
				SnapshotThreshold:   cfg.Storage.SnapshotThreshold,
			}
		}
		p, err := peer.New(pcfg)
		if err != nil {
			return nil, fmt.Errorf("fabnet: %w", err)
		}
		n.Peers = append(n.Peers, p)
		n.peerCfgs = append(n.peerCfgs, pcfg)
		peersByPrincipal[identity.ID()] = append(peersByPrincipal[identity.ID()], spec.nodeID)
	}

	// --- Clients ---
	// All gateways share one balancer and one load tracker, so replica
	// routing reacts to the whole client population's in-flight calls
	// and observed latencies, not one client's private view.
	balancer, err := gateway.NewBalancer(cfg.Balancer, 1)
	if err != nil {
		return nil, fmt.Errorf("fabnet: %w", err)
	}
	loads := gateway.NewLoadTracker()
	for i := 1; i <= cfg.NumClients; i++ {
		nodeID := fmt.Sprintf("client%d", i)
		enrollment, err := n.CAs["ClientOrg"].Enroll(fmt.Sprintf("user%d", i), ca.RoleClient)
		if err != nil {
			return nil, fmt.Errorf("fabnet: %w", err)
		}
		ep, err := n.register(nodeID)
		if err != nil {
			return nil, fmt.Errorf("fabnet: %w", err)
		}
		n.assignRegion(nodeID, i-1)
		eventPeer := n.Peers[(i-1)%len(n.Peers)].ID()
		// Each client process is one gateway — the staged-API connection
		// owning proposal signing, endorsement fan-out, broadcast, and
		// commit futures.
		gw, err := gateway.New(gateway.Config{
			ID:               nodeID,
			Endpoint:         ep,
			Identity:         msp.NewSigningIdentity(enrollment),
			Model:            model,
			CPU:              newCPU(nodeID, model.ClientCores),
			Orderers:         n.ordererIDs,
			EventPeer:        eventPeer,
			Policy:           cfg.Policy,
			PeersByPrincipal: peersByPrincipal,
			Balancer:         balancer,
			Loads:            loads,
			Collector:        cfg.Collector,
			SignProposals:    cfg.VerifyCrypto,
			ChannelID:        cfg.ChannelID,
			Channels:         channelIDs,
			Retry:            cfg.Retry,
			Tracer:           cfg.Tracer,
		})
		if err != nil {
			return nil, fmt.Errorf("fabnet: %w", err)
		}
		n.Gateways = append(n.Gateways, gw)
	}
	return n, nil
}

// assignRegion labels a node with the idx-th WAN-matrix region
// (round-robin) on both the bookkeeping map and the link matrix.
func (n *Network) assignRegion(id string, idx int) {
	if len(n.regionNames) == 0 {
		return
	}
	region := n.regionNames[idx%len(n.regionNames)]
	n.regions[id] = region
	n.Links().SetRegion(id, region)
}

// kafkaReplication is the replica count of each channel's partition.
const kafkaReplication = 3

// buildKafka assembles the brokers the Kafka consenters produce to and
// consume from.
func (n *Network) buildKafka() error {
	model := n.Cfg.Model
	brokerEPs := make(map[string]transport.Endpoint, n.Cfg.NumKafkaBrokers)
	for i := 1; i <= n.Cfg.NumKafkaBrokers; i++ {
		id := fmt.Sprintf("broker%d", i)
		ep, err := n.register(id)
		if err != nil {
			return fmt.Errorf("fabnet: %w", err)
		}
		n.assignRegion(id, i-1)
		n.brokerIDs = append(n.brokerIDs, id)
		brokerEPs[id] = ep
	}
	cluster, err := kafka.NewCluster(kafka.Config{
		Brokers:           n.brokerIDs,
		Partitions:        len(n.Cfg.channelIDs()), // one partition per channel (paper default)
		ReplicationFactor: kafkaReplication,
		ReplicaWriteDelay: func() {
			time.Sleep(model.ScaledDelay(model.KafkaReplicaWriteCPU))
		},
		RequestTimeout: model.ScaledDelay(3 * time.Second),
	}, brokerEPs)
	if err != nil {
		return fmt.Errorf("fabnet: %w", err)
	}
	n.kafkaCluster = cluster
	return nil
}

// openRaftStores opens OSN idx's per-channel hard-state stores; it
// opens none unless the network orders with Raft. The backend resolves
// as for peers: Storage.Backend with a PerPeer override keyed by the OSN
// ID. A "file" store is a WAL under Dir/<osnID>/raft/<channel>, closed
// and reopened from disk when a restart finds it open; a mem store is
// created once and reused, the Network playing the role of the disk.
func (n *Network) openRaftStores(idx int) error {
	if n.Cfg.Orderer != Raft {
		return nil
	}
	id := n.ordererIDs[idx]
	backend := n.Cfg.Storage.Backend
	if override := n.Cfg.Storage.PerPeer[id]; override != "" {
		backend = override
	}
	if backend == "file" && n.Cfg.Storage.Dir == "" {
		return fmt.Errorf("fabnet: orderer %s uses file storage but Storage.Dir is empty", id)
	}
	stores := make(map[string]raft.Store)
	for _, ch := range n.Cfg.channelIDs() {
		st := n.raftStores[idx][ch]
		if backend != "file" {
			if st == nil {
				st = raft.NewMemStore()
			}
			stores[ch] = st
			continue
		}
		if st != nil {
			st.Close()
		}
		fs, err := raft.NewFileStore(filepath.Join(n.Cfg.Storage.Dir, id, "raft", ch))
		if err != nil {
			return fmt.Errorf("fabnet: orderer %s raft store: %w", id, err)
		}
		stores[ch] = fs
	}
	n.raftStores[idx] = stores
	return nil
}

// attachConsenter builds OSN idx's consenter on o, whose endpoint is ep:
// the one place an OrdererType becomes a consenter, at Build and at
// RestartOrderer alike. A Raft consenter runs over the stores
// openRaftStores opened.
func (n *Network) attachConsenter(idx int, o *orderer.Orderer, ep transport.Endpoint) error {
	model := n.Cfg.Model
	switch n.Cfg.Orderer {
	case Solo:
		orderer.NewSolo(o)
	case Kafka:
		orderer.NewKafkaConsenter(o, kafka.NewClient(ep, n.brokerIDs, model.ScaledDelay(3*time.Second)))
	case Raft:
		// Fabric's etcdraft defaults are a 500ms tick with a 10-tick
		// election timeout; the heartbeat here is shorter because the
		// commit index is also pushed eagerly on advance.
		rc, err := orderer.NewRaftConsenter(o, orderer.RaftConfig{
			Peers:             n.ordererIDs,
			ElectionTimeout:   model.ScaledDelay(2 * time.Second),
			HeartbeatInterval: model.ScaledDelay(200 * time.Millisecond),
			Stores:            n.raftStores[idx],
			CompactThreshold:  n.Cfg.RaftCompactThreshold,
		})
		if err != nil {
			return fmt.Errorf("fabnet: orderer %s: %w", o.ID(), err)
		}
		n.raftCons[idx] = rc
	default:
		return fmt.Errorf("fabnet: unknown orderer type %q", n.Cfg.Orderer)
	}
	return nil
}

// Start launches the ordering service, peers, and gateways. For Raft it
// waits for leader election before returning.
func (n *Network) Start(ctx context.Context) error {
	if n.started {
		return errors.New("fabnet: already started")
	}
	n.started = true
	for _, o := range n.Orderers {
		if err := o.Start(); err != nil {
			return fmt.Errorf("fabnet: start orderer %s: %w", o.ID(), err)
		}
	}
	if n.Cfg.Orderer == Raft {
		if err := n.waitForRaftLeader(ctx); err != nil {
			return err
		}
	}
	for _, p := range n.Peers {
		if err := p.Start(ctx); err != nil {
			return fmt.Errorf("fabnet: start peer %s: %w", p.ID(), err)
		}
	}
	for _, gw := range n.Gateways {
		if err := gw.Connect(ctx); err != nil {
			return fmt.Errorf("fabnet: %w", err)
		}
	}
	return nil
}

// waitForRaftLeader polls until every channel's Raft group reports a
// leader on some OSN.
func (n *Network) waitForRaftLeader(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	channels := n.Cfg.channelIDs()
	for time.Now().Before(deadline) {
		elected := 0
		for _, ch := range channels {
			if _, ok := n.RaftLeaderFor(ch); ok {
				elected++
			}
		}
		if elected == len(channels) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return errors.New("fabnet: raft leader election timed out")
}

// RaftLeader returns the current Raft leader OSN of the default
// channel's group, if any.
func (n *Network) RaftLeader() (string, bool) {
	return n.RaftLeaderFor(n.Cfg.ChannelID)
}

// RaftLeaderFor returns the current Raft leader OSN of one channel's
// group, if any.
func (n *Network) RaftLeaderFor(channel string) (string, bool) {
	for _, rc := range n.raftCons {
		if rc == nil {
			continue // not ordering with Raft
		}
		if node, ok := rc.NodeFor(channel); ok {
			if l, ok := node.Leader(); ok {
				return l, true
			}
		}
	}
	return "", false
}

// ChannelIDs returns the network's channel names in configured order.
func (n *Network) ChannelIDs() []string {
	return n.Cfg.channelIDs()
}

// Heights reports every peer's committed chain height per channel — the
// observability health surface (a lagging peer shows up as a height
// behind its cohort). Peers whose ledgers are closed report nothing.
func (n *Network) Heights() map[string]map[string]uint64 {
	out := make(map[string]map[string]uint64, len(n.Peers))
	for _, p := range n.Peers {
		out[p.ID()] = ledgerHeights(p)
	}
	return out
}

// Links returns the runtime link-property matrix of whichever transport
// the network runs on (model time in-memory, wall time on TCP).
func (n *Network) Links() *transport.LinkSet {
	if n.Transport != nil {
		return n.Transport.Links()
	}
	return n.TCPNet.Links()
}

// SetNodeDown freezes or unfreezes a node. On the in-memory transport
// this marks the process crashed (sends to and from it error, so
// failure detectors fire fast); on TCP it isolates the node's links
// (frames silently drop, like a yanked cable).
func (n *Network) SetNodeDown(id string, down bool) {
	if n.Transport != nil {
		n.Transport.SetNodeDown(id, down)
		return
	}
	n.TCPNet.Links().Isolate(id, down)
}

// ThrottleCPU pins a node's simulated CPU to the given core count and
// returns the previous count. The throttle survives a peer restart
// (RestartPeer reuses the CPU object), like a real machine's cores.
func (n *Network) ThrottleCPU(id string, cores int) (int, error) {
	cpu, ok := n.nodeCPUs[id]
	if !ok {
		return 0, fmt.Errorf("fabnet: no CPU for node %q", id)
	}
	return cpu.SetCores(cores), nil
}

// Chaos returns the network's chaos controller, created on first use.
func (n *Network) Chaos() *chaos.Controller {
	n.chaosOnce.Do(func() {
		n.chaosCtl = chaos.New(chaosCluster{n})
	})
	return n.chaosCtl
}

// chaosCluster adapts Network to chaos.Cluster. Membership accessors
// return sorted copies so seeded schedules are deterministic.
type chaosCluster struct{ n *Network }

func (c chaosCluster) Peers() []string {
	ids := make([]string, 0, len(c.n.Peers))
	for _, p := range c.n.Peers {
		ids = append(ids, p.ID())
	}
	sort.Strings(ids)
	return ids
}

func (c chaosCluster) Orderers() []string {
	ids := make([]string, 0, len(c.n.Orderers))
	for _, o := range c.n.Orderers {
		ids = append(ids, o.ID())
	}
	sort.Strings(ids)
	return ids
}

func (c chaosCluster) Orgs() []string {
	orgs := make([]string, 0, len(c.n.orgMembers))
	for org := range c.n.orgMembers {
		orgs = append(orgs, org)
	}
	sort.Strings(orgs)
	return orgs
}

func (c chaosCluster) OrgOf(node string) string { return c.n.orgOf[node] }

func (c chaosCluster) OrgPeers(org string) []string {
	ids := append([]string(nil), c.n.orgMembers[org]...)
	sort.Strings(ids)
	return ids
}

func (c chaosCluster) Links() *transport.LinkSet { return c.n.Links() }

func (c chaosCluster) SetNodeDown(id string, down bool) { c.n.SetNodeDown(id, down) }

func (c chaosCluster) RestartPeer(ctx context.Context, id string) error {
	_, err := c.n.RestartPeer(ctx, id)
	return err
}

func (c chaosCluster) RestartOrderer(ctx context.Context, id string) error {
	_, err := c.n.RestartOrderer(ctx, id)
	return err
}

func (c chaosCluster) ThrottleCPU(id string, cores int) (int, error) {
	return c.n.ThrottleCPU(id, cores)
}

// OrdererEgress sums the deliver/catch-up egress of every OSN: how many
// blocks (and bytes) the ordering service pushed or served to peers.
func (n *Network) OrdererEgress() (blocks, bytes uint64) {
	for _, o := range n.Orderers {
		b, by := o.EgressStats()
		blocks += b
		bytes += by
	}
	return blocks, bytes
}

// RestartResult reports one peer crash + restart.
type RestartResult struct {
	// Peer is the restarted peer (it replaced the old one in
	// Network.Peers).
	Peer *peer.Peer
	// OldHeights records the committed chain height per channel at the
	// moment the old incarnation stopped — the tip a persistent restart
	// should recover to, and the gap a volatile one must replay.
	OldHeights map[string]uint64
	// StartHeights records the chain height per channel the new
	// incarnation was rebuilt at, read before it started: 1 (genesis) for
	// an empty mem ledger, the recovered height for a reopened one. Once
	// RestartPeer returns the peer is already catching up, so its live
	// height says nothing about where it began.
	StartHeights map[string]uint64
	// Persistent reports whether the restarted peer reopened file-backed
	// ledgers (true) or came back with empty mem ledgers.
	Persistent bool
}

// RestartPeer simulates a peer crash + restart: the named peer is
// stopped, its node ID released, and a fresh peer built from the same
// configuration (same identity, CPU, gossip membership, and recorder
// designation), then started. A mem-backed peer restarts
// empty and replays; a file-backed peer reopens its ledgers from the
// latest checkpoint plus the block-store tail and resumes from there.
// Either way the restarted peer converges back to the cluster tip
// through the catch-up path — subscribe tips under direct deliver,
// anti-entropy (or snapshot-then-tail) under gossip. Works on both the
// in-memory and the TCP transport.
func (n *Network) RestartPeer(ctx context.Context, id string) (*RestartResult, error) {
	idx, ep, err := reregister(n, n.Peers, id)
	if err != nil {
		return nil, err
	}
	res := &RestartResult{OldHeights: ledgerHeights(n.Peers[idx])}
	pcfg := n.peerCfgs[idx]
	pcfg.Endpoint = ep
	p, err := peer.New(pcfg)
	if err != nil {
		return nil, fmt.Errorf("fabnet: restart %s: %w", id, err)
	}
	res.StartHeights = ledgerHeights(p)
	if err := p.Start(ctx); err != nil {
		return nil, fmt.Errorf("fabnet: restart %s: %w", id, err)
	}
	n.Peers[idx] = p
	res.Peer = p
	res.Persistent = p.Ledger().Persistent()
	return res, nil
}

// reregister is the first step every restart shares: it stops node id,
// releases its ID and registers a fresh endpoint under it, returning
// the node's index in nodes.
func reregister[T interface {
	ID() string
	Stop()
}](n *Network, nodes []T, id string) (int, transport.Endpoint, error) {
	for i, node := range nodes {
		if node.ID() != id {
			continue
		}
		node.Stop()
		if n.Transport != nil {
			n.Transport.Deregister(id)
		} else {
			n.TCPNet.Deregister(id)
		}
		ep, err := n.register(id)
		if err != nil {
			return 0, nil, fmt.Errorf("fabnet: restart %s: %w", id, err)
		}
		return i, ep, nil
	}
	return 0, nil, fmt.Errorf("fabnet: unknown node %q", id)
}

// ledgerHeights reads a peer's committed chain height on every channel.
func ledgerHeights(p *peer.Peer) map[string]uint64 {
	heights := make(map[string]uint64, len(p.Channels()))
	for _, ch := range p.Channels() {
		if led, ok := p.LedgerFor(ch); ok {
			heights[ch] = led.Height()
		}
	}
	return heights
}

// OrdererRestartResult reports one OSN crash + restart.
type OrdererRestartResult struct {
	// Orderer is the restarted OSN (it replaced the old one in
	// Network.Orderers).
	Orderer *orderer.Orderer
	// OldHeights records each channel's chain tip at the moment the old
	// incarnation stopped — the height the restarted OSN must get back
	// to before it can serve deliver requests for the whole chain.
	OldHeights map[string]uint64
	// RaftBases records, per channel, the compaction base of the
	// restarted node's persisted Raft log (0 when nothing was compacted,
	// absent for non-Raft ordering). A base > 0 proves the node rejoined
	// from persisted state rather than replaying from genesis.
	RaftBases map[string]uint64
	// Rehydrated counts the blocks primed into each channel's chain from
	// a surviving OSN or peer block store before the consenter attached.
	Rehydrated map[string]uint64
}

// RestartOrderer simulates an OSN crash + restart: the named orderer is
// stopped, its node ID released, and a fresh orderer built from the
// same configuration under the same identity, then started. Under Raft
// the new node reloads its persisted hard state (term, vote, log) from
// the channel stores and only needs its block chain primed up to the
// log's compaction base — it replays the rest from its own log and the
// leader's appends. Under Solo and Kafka the chain is rehydrated from a
// surviving OSN's chain or a peer's block store tail; Kafka then
// replays its partition from offset zero and the chain's replay guard
// drops the duplicates. Gossip org leaders and directly-subscribed
// peers resubscribe through their existing deliver heartbeats, so no
// blocks are lost across the restart.
func (n *Network) RestartOrderer(ctx context.Context, id string) (*OrdererRestartResult, error) {
	idx, ep, err := reregister(n, n.Orderers, id)
	if err != nil {
		return nil, err
	}
	res := &OrdererRestartResult{
		OldHeights: make(map[string]uint64),
		RaftBases:  make(map[string]uint64),
		Rehydrated: make(map[string]uint64),
	}
	ocfg := n.ordererCfgs[idx]
	ocfg.Endpoint = ep
	o := orderer.New(ocfg)
	if err := n.openRaftStores(idx); err != nil {
		return nil, err
	}
	for _, ch := range n.Cfg.channelIDs() {
		res.OldHeights[ch] = n.Orderers[idx].ChainHeight(ch)
		// The chain must reach a Raft store's compaction base before the
		// consenter attaches: entries below the base are gone from the
		// log, so the blocks they produced can only come from elsewhere.
		var floor uint64
		if st := n.raftStores[idx][ch]; st != nil {
			_, base, _, err := st.Load()
			if err != nil {
				return nil, fmt.Errorf("fabnet: restart %s: load raft store: %w", id, err)
			}
			floor = base.Index
			res.RaftBases[ch] = floor
		}
		if res.OldHeights[ch] == 0 && floor == 0 {
			continue // no block was ever cut here: nothing to prime
		}
		blocks, err := n.chainTail(idx, ch, floor)
		if err == nil {
			err = o.RestoreChain(ch, blocks)
		}
		if err != nil {
			return nil, fmt.Errorf("fabnet: restart %s: channel %s: %w", id, ch, err)
		}
		res.Rehydrated[ch] = uint64(len(blocks))
	}
	if err := n.attachConsenter(idx, o, ep); err != nil {
		return nil, err
	}
	if err := o.Start(); err != nil {
		return nil, fmt.Errorf("fabnet: restart %s: %w", id, err)
	}
	n.Orderers[idx] = o
	res.Orderer = o
	return res, nil
}

// chainTail collects blocks [1..tip] of one channel from the best
// available source: another OSN's in-memory chain (always the full
// range) first, then any peer block store that still retains the chain
// from genesis (snapshot-bootstrapped ledgers cannot serve the early
// blocks). floor is the minimum tip required — a restarted Raft node
// must reach its log's compaction base — and the poll retries until a
// source reaches it. With floor zero and no source (every ledger
// pruned) it returns nil at the deadline: the chain restarts empty.
func (n *Network) chainTail(skipIdx int, ch string, floor uint64) ([]*types.Block, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Surviving OSNs hold the whole chain in memory.
		for i, o := range n.Orderers {
			if i == skipIdx {
				continue
			}
			h := o.ChainHeight(ch)
			if h == 0 || h < floor {
				continue
			}
			if blocks := o.ChainBlocks(ch, 1, h+1); uint64(len(blocks)) == h {
				return blocks, nil
			}
		}
		// Peer block stores, where the full range survives.
		for _, p := range n.Peers {
			led, ok := p.LedgerFor(ch)
			if !ok || led.Base() != 0 {
				continue
			}
			tip := led.Height() - 1 // Height counts genesis
			if tip == 0 || tip < floor {
				continue
			}
			blocks := make([]*types.Block, 0, tip)
			for num := uint64(1); num <= tip; num++ {
				b, err := led.GetBlock(num)
				if err != nil {
					blocks = nil
					break
				}
				blocks = append(blocks, b)
			}
			if blocks != nil {
				return blocks, nil
			}
		}
		if !time.Now().Before(deadline) {
			if floor == 0 {
				return nil, nil
			}
			return nil, fmt.Errorf("no source reaches raft compaction base %d", floor)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Stop tears the network down in dependency order.
func (n *Network) Stop() {
	for _, p := range n.Peers {
		p.Stop()
	}
	for _, o := range n.Orderers {
		o.Stop()
	}
	for _, stores := range n.raftStores {
		for _, st := range stores {
			st.Close()
		}
	}
	if n.kafkaCluster != nil {
		n.kafkaCluster.Stop()
	}
	for _, c := range n.cpus {
		c.Stop()
	}
	if n.Transport != nil {
		n.Transport.Close()
	}
	if n.TCPNet != nil {
		n.TCPNet.Close()
	}
}

// registerWireTypes declares every payload type the nodes exchange so
// the gob-framed TCP transport can encode them. Idempotent.
func registerWireTypes() {
	wireTypesOnce.Do(func() {
		for _, v := range []any{
			[]byte(nil),
			"",
			int(0),
			uint64(0),
			&types.Block{},
			&peer.EndorseRequest{},
			&types.ProposalResponse{},
			[]peer.CommitEvent(nil),
			&orderer.BroadcastEnvelope{},
			&orderer.GetBlocksArgs{}, &orderer.GetBlocksReply{},
			&orderer.SubscribeArgs{}, &orderer.SubscribeReply{},
			&orderer.SubmitArgs{},
			&gossip.BlockMsg{}, &gossip.DigestMsg{},
			&gossip.PullArgs{}, &gossip.PullReply{},
			&gossip.Beat{},
			&peer.SnapshotRequest{}, &peer.SnapshotChunk{},
			&kafka.ProduceArgs{}, &kafka.ProduceReply{},
			&kafka.ReplicateArgs{}, &kafka.ReplicateReply{},
			&kafka.FetchArgs{}, &kafka.FetchReply{},
			&kafka.MetadataReply{},
			&raft.VoteArgs{}, &raft.VoteReply{},
			&raft.AppendArgs{}, &raft.AppendReply{},
		} {
			transport.RegisterWireType(v)
		}
	})
}

var wireTypesOnce sync.Once
