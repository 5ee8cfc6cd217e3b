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
// follower pull. At the level the paper measures (in-sync replica
// latency as broker count grows), the two are equivalent: commitment
// still waits for every ISR member to acknowledge the record.
package kafka

import (
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

// Record is one log entry of a partition.
type Record struct {
	Offset int64
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
	Data      []byte
}

// ProduceReply acknowledges a committed record.
type ProduceReply struct {
	Offset int64
}

// ReplicateArgs pushes records to a follower replica.
type ReplicateArgs struct {
	Partition   int
	FromOffset  int64
	Records     []Record
	LeaderEpoch int64
}

// ReplicateReply acknowledges follower persistence.
type ReplicateReply struct {
	NextOffset int64
}

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

// partitionState is one broker's replica of a partition.
type partitionState struct {
	mu      sync.Mutex
	records []Record
	// highWatermark is the committed prefix length (leader only
	// meaningfully maintains it; followers learn it via replication).
	highWatermark int64
	leader        string
	epoch         int64
	replicas      []string
	isr           map[string]bool
	ackOffset     map[string]int64 // leader-tracked follower progress
	// wake is closed to wake every long poll parked on the partition.
	// The first poll to park makes it; wakeLocked closes and clears it.
	wake chan struct{}
}

func (p *partitionState) wakeLocked() {
	if p.wake != nil {
		close(p.wake)
		p.wake = nil
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
	// ReplicaWriteDelay optionally injects the cost model's per-record
	// append cost (already scaled); nil means none.
	ReplicaWriteDelay func()
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
// logic). It reads the partition state of the first live broker in
// cfg.Brokers order, so no map walk decides the new leader.
func (c *Cluster) failover(dead string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := func(id string) bool {
		b := c.brokers[id]
		return id != dead && b != nil && !b.isStopped()
	}
	for p := 0; p < c.cfg.Partitions; p++ {
		var cur *partitionState
		for _, id := range c.cfg.Brokers {
			if live(id) {
				if cur = c.brokers[id].partition(p); cur != nil {
					break
				}
			}
		}
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
			if live(id) {
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
	for _, r := range replicas {
		if _, ok := ps.isr[r]; !ok {
			ps.isr[r] = true
		}
	}
	ps.wakeLocked()
}

// handleProduce runs on the partition leader: append locally, replicate
// to ISR followers, advance the high watermark, ack the producer.
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
	if b.cluster.cfg.ReplicaWriteDelay != nil {
		b.cluster.cfg.ReplicaWriteDelay()
	}

	ps.mu.Lock()
	if ps.leader != b.id {
		leader := ps.leader
		ps.mu.Unlock()
		return nil, 0, fmt.Errorf("%w (leader is %q)", ErrNotLeader, leader)
	}
	rec := Record{Offset: int64(len(ps.records)), Data: args.Data}
	ps.records = append(ps.records, rec)
	epoch := ps.epoch
	followers := make([]string, 0, len(ps.replicas))
	for _, r := range ps.replicas {
		if r != b.id && ps.isr[r] {
			followers = append(followers, r)
		}
	}
	fromOffset := rec.Offset
	ps.mu.Unlock()

	// acks=all: wait for every in-sync follower.
	var wg sync.WaitGroup
	acks := make([]bool, len(followers))
	for i, f := range followers {
		i, f := i, f
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, err := b.ep.CallWithin(ctx, b.cluster.cfg.RequestTimeout, f, kindReplicate, &ReplicateArgs{
				Partition:   args.Partition,
				FromOffset:  fromOffset,
				Records:     []Record{rec},
				LeaderEpoch: epoch,
			}, len(rec.Data)+32)
			if err != nil {
				return
			}
			if _, ok := raw.(*ReplicateReply); ok {
				acks[i] = true
			}
		}()
	}
	wg.Wait()

	ps.mu.Lock()
	for i, f := range followers {
		if acks[i] {
			if off := fromOffset + 1; off > ps.ackOffset[f] {
				ps.ackOffset[f] = off
			}
		} else {
			// Follower missed the ack: shrink the ISR so commitment
			// does not stall (real Kafka does this on lag timeout).
			ps.isr[f] = false
		}
	}
	if rec.Offset+1 > ps.highWatermark {
		ps.highWatermark = rec.Offset + 1
	}
	ps.wakeLocked()
	ps.mu.Unlock()

	return &ProduceReply{Offset: rec.Offset}, 16, nil
}

// handleReplicate runs on followers: append pushed records in order.
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
	if b.cluster.cfg.ReplicaWriteDelay != nil {
		b.cluster.cfg.ReplicaWriteDelay()
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if args.LeaderEpoch < ps.epoch {
		return nil, 0, fmt.Errorf("kafka: stale leader epoch %d < %d", args.LeaderEpoch, ps.epoch)
	}
	for _, rec := range args.Records {
		switch {
		case rec.Offset == int64(len(ps.records)):
			ps.records = append(ps.records, rec)
		case rec.Offset < int64(len(ps.records)):
			ps.records[rec.Offset] = rec // idempotent re-push
		default:
			// Gap: the follower fell behind more than the push window;
			// signal the leader to resend from our log end.
			return &ReplicateReply{NextOffset: int64(len(ps.records))}, 16,
				fmt.Errorf("kafka: replica gap, have %d want %d", len(ps.records), rec.Offset)
		}
	}
	if hw := args.FromOffset + int64(len(args.Records)); hw > ps.highWatermark {
		ps.highWatermark = hw
	}
	ps.wakeLocked()
	return &ReplicateReply{NextOffset: int64(len(ps.records))}, 16, nil
}

// handleFetch serves consumer long polls.
func (b *Broker) handleFetch(ctx context.Context, _ string, payload any) (any, int, error) {
	args, ok := payload.(*FetchArgs)
	if !ok {
		return nil, 0, fmt.Errorf("kafka: bad fetch payload %T", payload)
	}
	if args.MaxBatch <= 0 {
		args.MaxBatch = 512
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
			end := hw
			if end > args.Offset+int64(args.MaxBatch) {
				end = args.Offset + int64(args.MaxBatch)
			}
			recs := make([]Record, end-args.Offset)
			copy(recs, ps.records[args.Offset:end])
			ps.mu.Unlock()
			size := 16
			for i := range recs {
				size += len(recs[i].Data) + 16
			}
			return &FetchReply{Records: recs, HighWatermark: hw}, size, nil
		}
		if !time.Now().Before(deadline) {
			ps.mu.Unlock()
			return &FetchReply{HighWatermark: hw}, 16, nil
		}
		if ps.wake == nil {
			ps.wake = make(chan struct{})
		}
		wake := ps.wake
		ps.mu.Unlock()
		timer := simcpu.GetTimer(time.Until(deadline))
		select {
		case <-wake:
			if timer.Stop() {
				simcpu.PutTimer(timer)
			}
		case <-ctx.Done():
			if timer.Stop() {
				simcpu.PutTimer(timer)
			}
			return nil, 0, ctx.Err()
		case <-timer.C:
			simcpu.PutTimer(timer)
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

// Produce appends data to the partition, following leader redirects.
func (c *Client) Produce(ctx context.Context, partition int, data []byte) (int64, error) {
	var lastErr error
	for attempt := 0; attempt < len(c.brokers)+2; attempt++ {
		target, err := c.findLeader(ctx, partition)
		if err != nil {
			lastErr = err
			continue
		}
		raw, err := c.ep.CallWithin(ctx, c.timeout, target, kindProduce, &ProduceArgs{Partition: partition, Data: data}, len(data)+32)
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

// Fetch long-polls the partition leader for records at offset.
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
