package orderer

import (
	"context"
	"fmt"
	"time"

	"fabricsim/internal/kafka"
	"fabricsim/internal/orderer/blockcutter"
	"fabricsim/internal/simcpu"
	"fabricsim/internal/types"
)

// Kafka record kinds: the ordering topic carries either a transaction
// envelope, produced as is, or a time-to-cut (TTC) marker. TTC markers
// make timeout cuts deterministic across OSNs: every OSN consumes the
// same record stream, so whichever OSN's local timer fires first posts a
// TTC for the next block number and all OSNs cut on the first TTC they
// see for it.
const (
	recordEnvelope byte = 1
	recordTTC      byte = 2
)

// encodeTTCRecord is a TTC record's data: the target block number.
func encodeTTCRecord(target uint64) []byte {
	enc := types.NewEncoder(10)
	enc.Uvarint(target)
	return enc.Bytes()
}

// KafkaConsenter orders envelopes through the Kafka substrate with one
// partition per channel (the paper's deployment rule): Submit produces
// to the channel's partition (acks=all across the ISR), and on every
// OSN one chain loop per channel consumes that partition into a local
// block cutter, as Fabric's Kafka chain does. Channels order
// concurrently because their partitions replicate and are consumed
// independently.
type KafkaConsenter struct {
	lanes
	orderer    *Orderer
	client     *kafka.Client
	partitions map[string]int // channel -> its partition
}

var _ Consenter = (*KafkaConsenter)(nil)

// NewKafkaConsenter attaches a Kafka consenter to the OSN. Each OSN gets
// its own kafka.Client; all consume the same partitions, partition i
// carrying the OSN's i-th channel.
func NewKafkaConsenter(o *Orderer, client *kafka.Client) *KafkaConsenter {
	k := &KafkaConsenter{
		lanes:      newLanes(),
		orderer:    o,
		client:     client,
		partitions: make(map[string]int),
	}
	for i, ch := range o.Channels() {
		k.partitions[ch] = i
		k.add(func() { k.chainLoop(ch, i) })
	}
	o.SetConsenter(k)
	return k
}

// Submit implements Consenter: produce the envelope to the channel's
// partition. The partition's log keeps env itself.
func (k *KafkaConsenter) Submit(ctx context.Context, channel string, env []byte) error {
	partition, ok := k.partitions[channel]
	if !ok {
		return ErrUnknownChannel
	}
	if _, err := k.client.Produce(ctx, partition, recordEnvelope, env); err != nil {
		return fmt.Errorf("kafka consenter: %w", err)
	}
	return nil
}

// chainLoop is one channel's Kafka chain. It consumes the partition in
// offset order into a local cutter and cuts a block on BatchSize or on
// the first TTC for that block's number. The first pending envelope
// starts a batch timer; when the timer expires the loop posts the TTC
// itself, and no fetch long poll outlasts the timer, so the timer needs
// no goroutine of its own. A failed call retries after one poll's wait.
func (k *KafkaConsenter) chainLoop(channel string, partition int) {
	cutter := blockcutter.New(k.orderer.cfg.Cutter)
	timeout := k.orderer.scaledTimeout()
	pollWait := max(timeout/2, 5*time.Millisecond)
	offset := int64(0)
	next := uint64(1) // number of the next block to cut
	var due time.Time // batch timer's expiry; zero while it is stopped
	emit := func(batch [][]byte) {
		// Replay from partition offset 0 is deterministic, so after a
		// restart over a rehydrated chain the recut blocks carry the
		// same numbers and emitBatchAt drops the duplicates.
		k.orderer.emitBatchAt(channel, next, batch)
		next++
	}
	for k.ctx.Err() == nil {
		if !due.IsZero() && !time.Now().Before(due) {
			if _, err := k.client.Produce(k.ctx, partition, recordTTC, encodeTTCRecord(next)); err != nil {
				_ = simcpu.Sleep(k.ctx, pollWait)
				continue
			}
			due = time.Time{}
		}
		wait := pollWait
		if !due.IsZero() {
			wait = min(wait, time.Until(due))
		}
		records, err := k.client.Fetch(k.ctx, partition, offset, wait)
		if err != nil {
			_ = simcpu.Sleep(k.ctx, pollWait)
			continue
		}
		for _, rec := range records {
			offset = rec.Offset + 1
			switch rec.Kind {
			case recordEnvelope:
				batches, pending := cutter.Ordered(rec.Data, time.Time{})
				for _, b := range batches {
					emit(b)
				}
				if !pending {
					due = time.Time{}
				} else if due.IsZero() {
					due = time.Now().Add(timeout)
				}
			case recordTTC:
				// A TTC for another block number is stale (another OSN
				// already cut, or a size cut came first); ignore it, as
				// Fabric does.
				if types.NewDecoder(rec.Data).Uvarint() != next {
					continue
				}
				due = time.Time{}
				if batch := cutter.Cut(); batch != nil {
					emit(batch)
				}
			}
		}
	}
}
