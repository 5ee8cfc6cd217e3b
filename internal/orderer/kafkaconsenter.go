package orderer

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fabricsim/internal/kafka"
	"fabricsim/internal/orderer/blockcutter"
	"fabricsim/internal/types"
)

// Kafka record tags: the ordering topic carries either a transaction
// envelope or a time-to-cut (TTC) marker. TTC markers make timeout cuts
// deterministic across OSNs: every OSN consumes the same record stream,
// so whichever OSN's local timer fires first posts a TTC for the next
// block number and all OSNs cut on the first TTC they see for it.
const (
	recordEnvelope byte = 1
	recordTTC      byte = 2
)

func encodeEnvelopeRecord(env []byte) []byte {
	out := make([]byte, 0, len(env)+1)
	out = append(out, recordEnvelope)
	return append(out, env...)
}

func encodeTTCRecord(target uint64) []byte {
	enc := types.NewEncoder(11)
	enc.Byte(recordTTC)
	enc.Uvarint(target)
	return enc.Bytes()
}

// KafkaConsenter orders envelopes through the Kafka substrate with one
// partition per channel (the paper's deployment rule): Submit produces
// to the channel's partition (acks=all across the ISR), and a consume
// loop per channel on every OSN feeds that channel's shared stream into
// a local block cutter. Channels order concurrently because their
// partitions replicate and are consumed independently.
type KafkaConsenter struct {
	lanes
	orderer *Orderer
	client  *kafka.Client
	chains  map[string]*kafkaChain
}

// kafkaChain is one channel's ordering lane over its Kafka partition.
type kafkaChain struct {
	channel   string
	partition int
	cutter    *blockcutter.Cutter

	mu        sync.Mutex
	ttcSent   uint64 // highest block number we posted a TTC for
	blockSeq  uint64 // next block number to cut (1-based)
	pendingAt time.Time
	hasPend   bool
}

var _ Consenter = (*KafkaConsenter)(nil)

// NewKafkaConsenter attaches a Kafka consenter to the OSN. Each OSN gets
// its own kafka.Client; all consume the same partitions, partition i
// carrying the OSN's i-th channel. Every channel runs two loops: one
// consumes the partition, one posts TTC markers.
func NewKafkaConsenter(o *Orderer, client *kafka.Client) *KafkaConsenter {
	k := &KafkaConsenter{
		lanes:   newLanes(),
		orderer: o,
		client:  client,
		chains:  make(map[string]*kafkaChain),
	}
	for i, ch := range o.Channels() {
		kc := &kafkaChain{
			channel:   ch,
			partition: i,
			cutter:    blockcutter.New(o.cfg.Cutter),
			blockSeq:  1,
		}
		k.chains[ch] = kc
		k.add(func() { k.consumeLoop(kc) }, func() { k.ttcLoop(kc) })
	}
	o.SetConsenter(k)
	return k
}

// Submit implements Consenter: produce the envelope to the channel's
// partition.
func (k *KafkaConsenter) Submit(ctx context.Context, channel string, env []byte) error {
	kc, ok := k.chains[channel]
	if !ok {
		return ErrUnknownChannel
	}
	_, err := k.client.Produce(ctx, kc.partition, encodeEnvelopeRecord(env))
	if err != nil {
		return fmt.Errorf("kafka consenter: %w", err)
	}
	return nil
}

// consumeLoop pulls one channel's ordered record stream and drives its
// cutter.
func (k *KafkaConsenter) consumeLoop(kc *kafkaChain) {
	offset := int64(0)
	pollWait := k.orderer.scaledTimeout() / 2
	if pollWait < 5*time.Millisecond {
		pollWait = 5 * time.Millisecond
	}
	for {
		select {
		case <-k.ctx.Done():
			return
		default:
		}
		records, err := k.client.Fetch(k.ctx, kc.partition, offset, pollWait)
		if err != nil {
			select {
			case <-k.ctx.Done():
				return
			case <-time.After(pollWait):
			}
			continue
		}
		for _, rec := range records {
			offset = rec.Offset + 1
			k.processRecord(kc, rec.Data)
		}
	}
}

// processRecord applies one consumed record deterministically.
func (k *KafkaConsenter) processRecord(kc *kafkaChain, data []byte) {
	if len(data) == 0 {
		return
	}
	switch data[0] {
	case recordEnvelope:
		env := data[1:]
		kc.mu.Lock()
		batches, pending := kc.cutter.Ordered(env, time.Now())
		if pending && !kc.hasPend {
			kc.hasPend = true
			kc.pendingAt = time.Now()
		}
		if !pending {
			kc.hasPend = false
		}
		type cut struct {
			num   uint64
			batch [][]byte
		}
		var toEmit []cut
		for _, b := range batches {
			toEmit = append(toEmit, cut{num: kc.blockSeq, batch: b})
			kc.blockSeq++
		}
		kc.mu.Unlock()
		for _, c := range toEmit {
			// Replay from partition offset 0 is deterministic, so after a
			// restart over a rehydrated chain the recut blocks carry the
			// same numbers and emitBatchAt drops the duplicates.
			k.orderer.emitBatchAt(kc.channel, c.num, c.batch)
		}
	case recordTTC:
		dec := types.NewDecoder(data[1:])
		target := dec.Uvarint()
		kc.mu.Lock()
		if target != kc.blockSeq {
			// Stale or future TTC (another OSN already cut, or the
			// poster raced a size-based cut); ignore, as Fabric does.
			kc.mu.Unlock()
			return
		}
		batch := kc.cutter.Cut()
		kc.hasPend = false
		if batch == nil {
			kc.mu.Unlock()
			return
		}
		kc.blockSeq++
		kc.mu.Unlock()
		k.orderer.emitBatchAt(kc.channel, target, batch)
	}
}

// ttcLoop posts a TTC record on one channel when this OSN's local batch
// timer expires while transactions are pending.
func (k *KafkaConsenter) ttcLoop(kc *kafkaChain) {
	timeout := k.orderer.scaledTimeout()
	tick := timeout / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-k.ctx.Done():
			return
		case <-ticker.C:
			kc.mu.Lock()
			due := kc.hasPend && time.Since(kc.pendingAt) >= timeout && kc.ttcSent < kc.blockSeq
			target := kc.blockSeq
			if due {
				kc.ttcSent = target
			}
			kc.mu.Unlock()
			if !due {
				continue
			}
			cctx, cancel := context.WithTimeout(k.ctx, timeout)
			_, err := k.client.Produce(cctx, kc.partition, encodeTTCRecord(target))
			cancel()
			if err != nil {
				// Allow a retry on the next tick.
				kc.mu.Lock()
				if kc.ttcSent == target {
					kc.ttcSent = target - 1
				}
				kc.mu.Unlock()
			}
		}
	}
}
