// Package kafka is a from-scratch substrate reproducing the subset of
// Apache Kafka the Kafka-based ordering service uses: brokers holding
// replicated partition logs, a leader/follower model with in-sync
// replicas (ISR) and acks=all commitment, long-poll fetches, and a
// controller that reassigns partition leadership when a broker is
// killed.
//
// The paper's defaults are one partition per channel and a replication
// factor of 3 (Section III); both are configurable here. One deliberate
// simplification: followers receive records via leader push rather than
// follower pull. The leader runs at most one sender per follower, which
// sends the follower's log suffix from its acked offset to the log end
// and repeats until the follower holds the whole log, so one message
// carries every record produced meanwhile (group commit) and a follower
// never sees a gap. The high watermark is the smallest of the leader's
// log end and every ISR follower's acked offset, and a produce is acked
// once it passes the record (acks=all). A follower whose call fails
// leaves the ISR; it rejoins once a sender has brought it up to the
// high watermark, as Kafka's ISR expansion does. At the level the paper
// measures (in-sync replica latency as broker count grows), push and
// pull are equivalent.
//
// As in Kafka's zero-copy design, a broker hands out its log and never
// copies it per consumer: a fetch reply and a replicate message carry a
// capped subslice of the log, and a record's Data is the producer's
// bytes. Each record carries a one-byte Kind beside its Data, which the
// broker stores and returns untouched, so a producer tags a record
// without copying it. The log changes in one place only, a follower
// truncating its suffix to a new leader's, and that clips the log's
// capacity first, so records handed out earlier stay as they were.
// Callers treat fetched records as read-only.
package kafka

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"fabricsim/internal/simcpu"
	"fabricsim/internal/transport"
)

// Errors returned by cluster operations.
var (
	ErrNotLeader   = errors.New("kafka: broker is not the partition leader")
	ErrNoPartition = errors.New("kafka: unknown partition")
	ErrStopped     = errors.New("kafka: broker stopped")
)

// Record is one log entry of a partition. Kind is the producer's tag,
// which the broker stores and returns untouched.
type Record struct {
	Offset int64
	Kind   byte
	Data   []byte
}

// Message kinds on the transport.
const (
	kindProduce   = "kafka.produce"
	kindReplicate = "kafka.replicate"
	kindFetch     = "kafka.fetch"
	kindMetadata  = "kafka.metadata"
)

// ProduceArgs asks the partition leader to append a record.
type ProduceArgs struct {
	Partition int
	Kind      byte
	Data      []byte
}

// ProduceReply acknowledges a committed record.
type ProduceReply struct {
	Offset int64
}

// ReplicateArgs pushes the leader's log from FromOffset to a follower
// replica, which installs it there.
type ReplicateArgs struct {
	Partition   int
	FromOffset  int64
	Records     []Record
	LeaderEpoch int64
}

// ReplicateReply acknowledges follower persistence.
type ReplicateReply struct{}

// FetchArgs requests records from a partition at an offset, waiting up
// to MaxWait for data to arrive (long poll).
type FetchArgs struct {
	Partition int
	Offset    int64
	MaxWait   time.Duration
	MaxBatch  int
}

// FetchReply returns the fetched records (possibly empty on timeout).
type FetchReply struct {
	Records       []Record
	HighWatermark int64
}

// MetadataReply names the current leader of a partition.
type MetadataReply struct {
	Leader string
}

// wireSize is the modeled size of a message carrying recs.
func wireSize(recs []Record) int {
	size := 16
	for i := range recs {
		size += 1 + len(recs[i].Data) + 16
	}
	return size
}

// partitionState is one broker's replica of a partition.
type partitionState struct {
	mu      sync.Mutex
	records []Record
	// highWatermark is the committed prefix length. A leader raises it
	// to the smallest of its log end and every ISR follower's acked
	// offset; a follower sets it to its log end.
	highWatermark int64
	leader        string
	epoch         int64
	replicas      []string
	isr           map[string]bool
	// ackOffset is the leader's record of each follower's log end in
	// this epoch; sending marks a follower that a sender is serving.
	ackOffset map[string]int64
	sending   map[string]bool
	// wake is closed to wake every produce and long poll parked on the
	// partition. The first to park makes it; wakeLocked closes and
	// clears it.
	wake chan struct{}
}

func (p *partitionState) wakeLocked() {
	if p.wake != nil {
		close(p.wake)
		p.wake = nil
	}
}

// parkLocked returns the channel the next wakeLocked closes.
func (p *partitionState) parkLocked() <-chan struct{} {
	if p.wake == nil {
		p.wake = make(chan struct{})
	}
	return p.wake
}

// advanceLocked raises the leader's high watermark to the smallest of
// its log end and every ISR follower's acked offset, and wakes the
// parked produces and long polls if it moved.
func (p *partitionState) advanceLocked() {
	hw := int64(len(p.records))
	for _, r := range p.replicas {
		if r != p.leader && p.isr[r] {
			hw = min(hw, p.ackOffset[r])
		}
	}
	if hw > p.highWatermark {
		p.highWatermark = hw
		p.wakeLocked()
	}
}

// Config parameterizes a cluster.
type Config struct {
	// Brokers lists broker node IDs (transport identifiers).
	Brokers []string
	// Partitions is the partition count of the single ordering topic.
	Partitions int
	// ReplicationFactor is the replica count per partition.
	ReplicationFactor int
	// ReplicaWriteDelay is the cost model's append cost, already
	// scaled: a leader charges it per produce, a follower per replicate
	// message. Zero means none.
	ReplicaWriteDelay time.Duration
	// RequestTimeout bounds internal RPCs (wall-clock).
	RequestTimeout time.Duration
}

// Cluster wires brokers and the controller.
type Cluster struct {
	cfg     Config
	brokers map[string]*Broker
	mu      sync.Mutex
}

// NewCluster creates the brokers and elects a controller. Each broker
// ID in cfg.Brokers must already be registered on net.
func NewCluster(cfg Config, endpoints map[string]transport.Endpoint) (*Cluster, error) {
	if cfg.Partitions < 1 {
		cfg.Partitions = 1
	}
	if cfg.ReplicationFactor < 1 {
		cfg.ReplicationFactor = 1
	}
	if cfg.ReplicationFactor > len(cfg.Brokers) {
		cfg.ReplicationFactor = len(cfg.Brokers)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	c := &Cluster{cfg: cfg, brokers: make(map[string]*Broker)}

	for _, id := range cfg.Brokers {
		ep, ok := endpoints[id]
		if !ok {
			return nil, fmt.Errorf("kafka: no endpoint for broker %q", id)
		}
		c.brokers[id] = newBroker(c, id, ep)
	}

	// Initial partition assignment: round-robin leaders with the next
	// RF-1 brokers as followers.
	for p := 0; p < cfg.Partitions; p++ {
		replicas := make([]string, 0, cfg.ReplicationFactor)
		for i := 0; i < cfg.ReplicationFactor; i++ {
			replicas = append(replicas, cfg.Brokers[(p+i)%len(cfg.Brokers)])
		}
		c.assignPartition(p, replicas[0], replicas, 1)
	}
	return c, nil
}

// assignPartition installs leadership state on every replica. The
// caller holds c.mu, or has not yet shared c.
func (c *Cluster) assignPartition(p int, leader string, replicas []string, epoch int64) {
	for _, id := range replicas {
		b, ok := c.brokers[id]
		if !ok {
			continue
		}
		b.installPartition(p, leader, replicas, epoch)
	}
}

// Leader returns the current leader broker ID of a partition, as
// recorded on any live replica.
func (c *Cluster) Leader(p int) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range c.brokers {
		if ps := b.partition(p); ps != nil {
			ps.mu.Lock()
			l := ps.leader
			ps.mu.Unlock()
			if l != "" {
				return l, true
			}
		}
	}
	return "", false
}

// KillBroker simulates a broker crash: it stops serving, and the
// controller fails leadership over to a surviving ISR member.
func (c *Cluster) KillBroker(id string) error {
	c.mu.Lock()
	b, ok := c.brokers[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("kafka: unknown broker %q", id)
	}
	b.stop()
	c.failover(id)
	return nil
}

// failover moves leadership of partitions led by dead to the first
// replica, in assignment order, that is live and in the ISR (controller
// logic). The ISR is the one the dead leader kept, standing in for the
// ISR record Kafka's controller reads: followers never learn which of
// them left it.
func (c *Cluster) failover(dead string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for p := 0; p < c.cfg.Partitions; p++ {
		cur := c.brokers[dead].partition(p)
		if cur == nil {
			continue
		}
		cur.mu.Lock()
		leader, epoch, replicas := cur.leader, cur.epoch, cur.replicas
		isr := make([]string, 0, len(replicas))
		for _, id := range replicas {
			if cur.isr[id] {
				isr = append(isr, id)
			}
		}
		cur.mu.Unlock()
		if leader != dead {
			continue
		}
		// With no live ISR member the partition stays offline: unclean
		// leader election is disabled.
		for _, id := range isr {
			if b := c.brokers[id]; id != dead && b != nil && !b.isStopped() {
				c.assignPartition(p, id, replicas, epoch+1)
				break
			}
		}
	}
}

// Stop shuts every broker down.
func (c *Cluster) Stop() {
	c.mu.Lock()
	brokers := make([]*Broker, 0, len(c.brokers))
	for _, b := range c.brokers {
		brokers = append(brokers, b)
	}
	c.mu.Unlock()
	for _, b := range brokers {
		b.stop()
	}
}

// Broker is one Kafka node.
type Broker struct {
	id      string
	cluster *Cluster
	ep      transport.Endpoint

	mu         sync.Mutex
	partitions map[int]*partitionState
	stopped    bool
}

func newBroker(c *Cluster, id string, ep transport.Endpoint) *Broker {
	b := &Broker{
		id:         id,
		cluster:    c,
		ep:         ep,
		partitions: make(map[int]*partitionState),
	}
	ep.Handle(kindProduce, b.handleProduce)
	ep.Handle(kindReplicate, b.handleReplicate)
	ep.Handle(kindFetch, b.handleFetch)
	ep.Handle(kindMetadata, b.handleMetadata)
	return b
}

func (b *Broker) stop() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped {
		return
	}
	b.stopped = true
	// Wake any long-polling fetchers so they drain out.
	for _, ps := range b.partitions {
		ps.mu.Lock()
		ps.wakeLocked()
		ps.mu.Unlock()
	}
}

func (b *Broker) isStopped() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stopped
}

func (b *Broker) partition(p int) *partitionState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.partitions[p]
}

// installPartition sets or updates this broker's view of a partition.
func (b *Broker) installPartition(p int, leader string, replicas []string, epoch int64) {
	b.mu.Lock()
	ps, ok := b.partitions[p]
	if !ok {
		ps = &partitionState{
			isr:       make(map[string]bool),
			ackOffset: make(map[string]int64),
			sending:   make(map[string]bool),
		}
		b.partitions[p] = ps
	}
	b.mu.Unlock()

	ps.mu.Lock()
	defer ps.mu.Unlock()
	if epoch < ps.epoch {
		return
	}
	ps.leader = leader
	ps.epoch = epoch
	ps.replicas = append([]string(nil), replicas...)
	clear(ps.ackOffset) // a new epoch's leader learns its followers afresh
	for _, r := range replicas {
		if _, ok := ps.isr[r]; !ok {
			ps.isr[r] = true
		}
	}
	ps.wakeLocked()
}

// handleProduce runs on the partition leader: append locally, start a
// sender for each follower that has none, and ack the producer once the
// high watermark passes the record.
func (b *Broker) handleProduce(ctx context.Context, _ string, payload any) (any, int, error) {
	args, ok := payload.(*ProduceArgs)
	if !ok {
		return nil, 0, fmt.Errorf("kafka: bad produce payload %T", payload)
	}
	if b.isStopped() {
		return nil, 0, ErrStopped
	}
	ps := b.partition(args.Partition)
	if ps == nil {
		return nil, 0, fmt.Errorf("%w: %d", ErrNoPartition, args.Partition)
	}
	// Charge the append cost before taking the partition lock so slow
	// host timers never serialize the whole partition.
	time.Sleep(b.cluster.cfg.ReplicaWriteDelay)

	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.leader != b.id {
		return nil, 0, fmt.Errorf("%w (leader is %q)", ErrNotLeader, ps.leader)
	}
	off, epoch := int64(len(ps.records)), ps.epoch
	ps.records = append(ps.records, Record{Offset: off, Kind: args.Kind, Data: args.Data})
	for _, f := range ps.replicas {
		if f != b.id && !ps.sending[f] {
			ps.sending[f] = true
			go b.replicate(args.Partition, ps, f)
		}
	}
	ps.advanceLocked()
	// acks=all: wait until every ISR member holds the record.
	for ps.highWatermark <= off && ps.epoch == epoch && ctx.Err() == nil {
		wake := ps.parkLocked()
		ps.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
		}
		ps.mu.Lock()
	}
	if ps.epoch != epoch || ps.highWatermark <= off {
		return nil, 0, fmt.Errorf("kafka: offset %d not committed: %w", off, cmp.Or(ctx.Err(), ErrNotLeader))
	}
	return &ProduceReply{Offset: off}, 16, nil
}

// replicate is the one sender to follower f. While this broker leads the
// partition, it sends f the log from f's acked offset to the log end
// until f holds the whole log. A failed call drops f from the ISR; an
// ack that reaches the high watermark brings it back.
func (b *Broker) replicate(p int, ps *partitionState, f string) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	defer delete(ps.sending, f)
	for ps.leader == b.id && ps.ackOffset[f] < int64(len(ps.records)) {
		epoch, from, end := ps.epoch, ps.ackOffset[f], int64(len(ps.records))
		recs := ps.records[from:end:end]
		ps.mu.Unlock()
		args := &ReplicateArgs{Partition: p, FromOffset: from, Records: recs, LeaderEpoch: epoch}
		_, err := b.ep.CallWithin(context.Background(), b.cluster.cfg.RequestTimeout, f, kindReplicate, args, wireSize(recs))
		ps.mu.Lock()
		switch {
		case ps.epoch != epoch: // leadership moved meanwhile
		case err != nil:
			ps.isr[f] = false
			ps.advanceLocked()
			return
		default:
			// An ISR member always holds the high watermark; one that
			// left the ISR rejoins on reaching it.
			ps.ackOffset[f] = end
			ps.isr[f] = end >= ps.highWatermark
			ps.advanceLocked()
		}
	}
}

// handleReplicate runs on followers: install the pushed suffix at its
// offset.
func (b *Broker) handleReplicate(_ context.Context, _ string, payload any) (any, int, error) {
	args, ok := payload.(*ReplicateArgs)
	if !ok {
		return nil, 0, fmt.Errorf("kafka: bad replicate payload %T", payload)
	}
	if b.isStopped() {
		return nil, 0, ErrStopped
	}
	ps := b.partition(args.Partition)
	if ps == nil {
		return nil, 0, fmt.Errorf("%w: %d", ErrNoPartition, args.Partition)
	}
	time.Sleep(b.cluster.cfg.ReplicaWriteDelay)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if args.LeaderEpoch < ps.epoch || args.FromOffset < 0 || args.FromOffset > int64(len(ps.records)) {
		return nil, 0, fmt.Errorf("kafka: refused records from %d at epoch %d: have %d at epoch %d", args.FromOffset, args.LeaderEpoch, len(ps.records), ps.epoch)
	}
	if args.FromOffset < int64(len(ps.records)) {
		// Truncation is the one write over existing entries: clip the
		// capacity first so the append copies into a fresh array and no
		// record slice handed out earlier changes.
		ps.records = ps.records[:args.FromOffset:args.FromOffset]
	}
	ps.records = append(ps.records, args.Records...)
	ps.highWatermark = int64(len(ps.records))
	ps.wakeLocked()
	return &ReplicateReply{}, 16, nil
}

// handleFetch serves consumer long polls.
func (b *Broker) handleFetch(ctx context.Context, _ string, payload any) (any, int, error) {
	args, ok := payload.(*FetchArgs)
	if !ok {
		return nil, 0, fmt.Errorf("kafka: bad fetch payload %T", payload)
	}
	maxBatch := int64(args.MaxBatch)
	if maxBatch <= 0 {
		maxBatch = 512
	}
	deadline := time.Now().Add(args.MaxWait)
	for {
		if b.isStopped() {
			return nil, 0, ErrStopped
		}
		ps := b.partition(args.Partition)
		if ps == nil {
			return nil, 0, fmt.Errorf("%w: %d", ErrNoPartition, args.Partition)
		}
		ps.mu.Lock()
		hw := ps.highWatermark
		if args.Offset < hw {
			end := min(hw, args.Offset+maxBatch)
			recs := ps.records[args.Offset:end:end]
			ps.mu.Unlock()
			return &FetchReply{Records: recs, HighWatermark: hw}, wireSize(recs), nil
		}
		if !time.Now().Before(deadline) {
			ps.mu.Unlock()
			return &FetchReply{HighWatermark: hw}, 16, nil
		}
		wake := ps.parkLocked()
		ps.mu.Unlock()
		timer := simcpu.GetTimer(time.Until(deadline))
		select {
		case <-wake:
		case <-ctx.Done():
		case <-timer.C:
		}
		simcpu.PutTimer(timer)
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
	}
}

// handleMetadata reports partition leadership.
func (b *Broker) handleMetadata(_ context.Context, _ string, payload any) (any, int, error) {
	p, ok := payload.(int)
	if !ok {
		return nil, 0, fmt.Errorf("kafka: bad metadata payload %T", payload)
	}
	ps := b.partition(p)
	if ps == nil {
		return nil, 0, fmt.Errorf("%w: %d", ErrNoPartition, p)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return &MetadataReply{Leader: ps.leader}, 64, nil
}

// Client is a producer/consumer attachment to the cluster, used by the
// ordering service nodes.
type Client struct {
	ep      transport.Endpoint
	brokers []string
	timeout time.Duration

	mu     sync.Mutex
	leader map[int]string
}

// NewClient creates a client that discovers partition leaders by asking
// brokers for metadata.
func NewClient(ep transport.Endpoint, brokers []string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &Client{ep: ep, brokers: brokers, timeout: timeout, leader: make(map[int]string)}
}

// Produce appends a record of the given kind to the partition, following
// leader redirects. The broker keeps data, which the caller must not
// modify afterwards.
func (c *Client) Produce(ctx context.Context, partition int, kind byte, data []byte) (int64, error) {
	var lastErr error
	for attempt := 0; attempt < len(c.brokers)+2; attempt++ {
		target, err := c.findLeader(ctx, partition)
		if err != nil {
			lastErr = err
			continue
		}
		raw, err := c.ep.CallWithin(ctx, c.timeout, target, kindProduce, &ProduceArgs{Partition: partition, Kind: kind, Data: data}, 1+len(data)+32)
		if err != nil {
			c.invalidateLeader(partition)
			lastErr = err
			continue
		}
		reply, ok := raw.(*ProduceReply)
		if !ok {
			return 0, fmt.Errorf("kafka: bad produce reply %T", raw)
		}
		return reply.Offset, nil
	}
	return 0, fmt.Errorf("kafka: produce failed after retries: %w", lastErr)
}

// Fetch long-polls the partition leader for records at offset. The
// records share the broker's log and are read-only.
func (c *Client) Fetch(ctx context.Context, partition int, offset int64, maxWait time.Duration) ([]Record, error) {
	target, err := c.findLeader(ctx, partition)
	if err != nil {
		return nil, err
	}
	raw, err := c.ep.CallWithin(ctx, maxWait+c.timeout, target, kindFetch, &FetchArgs{Partition: partition, Offset: offset, MaxWait: maxWait}, 32)
	if err != nil {
		c.invalidateLeader(partition)
		return nil, err
	}
	reply, ok := raw.(*FetchReply)
	if !ok {
		return nil, fmt.Errorf("kafka: bad fetch reply %T", raw)
	}
	return reply.Records, nil
}

func (c *Client) invalidateLeader(partition int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.leader, partition)
}

func (c *Client) findLeader(ctx context.Context, partition int) (string, error) {
	c.mu.Lock()
	if l, ok := c.leader[partition]; ok {
		c.mu.Unlock()
		return l, nil
	}
	c.mu.Unlock()

	var lastErr error
	for _, b := range c.brokers {
		raw, err := c.ep.CallWithin(ctx, c.timeout, b, kindMetadata, partition, 8)
		if err != nil {
			lastErr = err
			continue
		}
		md, ok := raw.(*MetadataReply)
		if !ok || md.Leader == "" {
			continue
		}
		c.mu.Lock()
		c.leader[partition] = md.Leader
		c.mu.Unlock()
		return md.Leader, nil
	}
	return "", fmt.Errorf("kafka: no leader found for partition %d: %w", partition, lastErr)
}
