package blockcutter

import (
	"fmt"
	"math/rand"

	"fabricsim/internal/rwdep"
	"fabricsim/internal/types"
)

// This file keeps the reorder passes Reorder replaced, as oracles its
// differential tests hold it to, and the batch generator they share.

// perEnvelopeReorder is Reorder as it was before it peeked a batch with
// one decoder: one PeekEnvelopeInfo per envelope.
func perEnvelopeReorder(batch [][]byte) ([][]byte, int) {
	if len(batch) < 2 {
		return batch, 0
	}
	rws := make([]rwdep.RW, len(batch))
	participates := make([]bool, len(batch))
	peeked := false
	for i, env := range batch {
		info, err := types.PeekEnvelopeInfo(env)
		if err != nil {
			continue
		}
		rws[i] = rwdep.FromRWSet(info.ChaincodeID, &info.Results)
		participates[i] = true
		peeked = true
	}
	if !peeked {
		return batch, 0
	}
	order, aborted := rwdep.Schedule(rws, participates)
	out := make([][]byte, 0, len(batch))
	for _, i := range order {
		out = append(out, batch[i])
	}
	for _, i := range aborted {
		out = append(out, batch[i])
	}
	return out, len(aborted)
}

// refPeek is the copying peek Reorder used before the in-place decode,
// on the exported Decoder: it copies the namespace and every key, steps
// over the other proposal fields, and reports false where the peek
// failed. Its counts are plain varints rather than prefixes checked
// against the bytes left, which accepts and rejects the same inputs:
// every counted element takes at least one byte.
func refPeek(env []byte) (string, *types.RWSet, bool) {
	dec := types.NewDecoder(env)
	dec.Bytes2() // TxID
	dec.Bytes2() // ChannelID
	ns := dec.String()
	dec.Bytes2() // Fn
	for n := dec.Uvarint(); n > 0 && dec.Err() == nil; n-- {
		dec.Bytes2() // Args
	}
	dec.Bytes2() // Creator
	dec.Bytes2() // Nonce
	dec.Int64()  // Timestamp
	dec.Bytes2() // TraceID
	rw := &types.RWSet{}
	for n := dec.Uvarint(); n > 0 && dec.Err() == nil; n-- {
		r := types.KVRead{Key: dec.String()}
		r.Version.BlockNum, r.Version.TxNum, r.Exists = dec.Uvarint(), dec.Uvarint(), dec.Bool()
		rw.Reads = append(rw.Reads, r)
	}
	for n := dec.Uvarint(); n > 0 && dec.Err() == nil; n-- {
		rw.Writes = append(rw.Writes, types.KVWrite{Key: dec.String(), Value: dec.Bytes2(), IsDelete: dec.Bool()})
	}
	return ns, rw, dec.Err() == nil
}

// refReorder is Reorder over the copying peek and the "namespace/key"
// strings rwdep keyed on before it viewed (namespace, key) pairs; in the
// empty namespace those strings compare exactly as they used to.
func refReorder(batch [][]byte) ([][]byte, int) {
	if len(batch) < 2 {
		return batch, 0
	}
	rws := make([]rwdep.RW, len(batch))
	participates := make([]bool, len(batch))
	peeked := false
	for i, env := range batch {
		ns, rw, ok := refPeek(env)
		if !ok {
			continue
		}
		for _, r := range rw.Reads {
			rws[i].Reads = append(rws[i].Reads, types.KVRead{Key: ns + "/" + r.Key})
		}
		for _, w := range rw.Writes {
			rws[i].Writes = append(rws[i].Writes, types.KVWrite{Key: ns + "/" + w.Key})
		}
		participates[i] = true
		peeked = true
	}
	if !peeked {
		return batch, 0
	}
	order, aborted := rwdep.Schedule(rws, participates)
	out := make([][]byte, 0, len(batch))
	for _, i := range append(order, aborted...) {
		out = append(out, batch[i])
	}
	return out, len(aborted)
}

// genBatch returns a seeded batch of 1-maxLen envelopes over one to
// three namespaces without a slash: contended read-modify-writes, reads
// and blind writes, with unpeekable envelopes mixed in (garbage, and
// envelopes cut short, some of them still peekable).
func genBatch(rng *rand.Rand, maxLen int) [][]byte {
	nns, nkeys := 1+rng.Intn(3), 2+rng.Intn(40)
	z := rand.NewZipf(rng, 1.2, 1, uint64(nkeys-1))
	keys := func(m int) []string {
		out := make([]string, m)
		for i := range out {
			out[i] = fmt.Sprintf("k%d", z.Uint64())
		}
		return out
	}
	batch := make([][]byte, 1+rng.Intn(maxLen))
	for i := range batch {
		ns, id := fmt.Sprintf("cc%d", rng.Intn(nns)), fmt.Sprintf("tx%d", i)
		var e []byte
		switch rng.Intn(4) {
		case 0:
			ks := keys(1 + rng.Intn(2))
			e = envIn(ns, id, ks, ks)
		case 1:
			e = envIn(ns, id, keys(1+rng.Intn(3)), nil)
		default:
			e = envIn(ns, id, keys(rng.Intn(3)), keys(rng.Intn(3)))
		}
		switch rng.Intn(12) {
		case 0:
			e = e[:rng.Intn(len(e))]
		case 1:
			e = make([]byte, rng.Intn(16))
			rng.Read(e)
		}
		batch[i] = e
	}
	return batch
}
