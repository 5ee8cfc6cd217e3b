package main

import (
	"bytes"
	"fmt"
	"time"

	"fabricsim/internal/fabnet"
	"fabricsim/internal/types"
)

// convergeTimeout bounds the wait for every peer to commit the last
// block after the load has drained (gossip peers trail their leader).
const convergeTimeout = 10 * time.Second

// chain reads a peer's committed blocks 1..tip of the network's
// channel through the public pull surface.
func chain(net *fabnet.Network, peer int) ([]*types.Block, error) {
	p := net.Peers[peer]
	height := p.Ledger().Height()
	blocks := make([]*types.Block, 0, height)
	for n := uint64(1); n < height; n++ {
		b, ok := p.BlockAt(net.Cfg.ChannelID, n)
		if !ok {
			return nil, fmt.Errorf("peer %s: block %d missing below height %d", p.ID(), n, height)
		}
		blocks = append(blocks, b)
	}
	return blocks, nil
}

// verifyOutputs checks the program's outputs after a run: all peers
// agree on height, tip hash and state hash, every hash chain verifies,
// and every transaction a client saw ordered is on the ledger exactly
// once with the code the client was told. It returns the problems found.
func verifyOutputs(net *fabnet.Network, seen []txResult) []string {
	var problems []string
	deadline := time.Now().Add(convergeTimeout)
	for {
		heights := make(map[uint64]bool)
		for _, p := range net.Peers {
			heights[p.Ledger().Height()] = true
		}
		if len(heights) == 1 {
			break
		}
		if time.Now().After(deadline) {
			problems = append(problems, fmt.Sprintf("peers did not converge: heights %v", net.Heights()))
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	ref := net.Peers[0].Ledger()
	refState, err := ref.StateHash()
	if err != nil {
		problems = append(problems, fmt.Sprintf("peer %s: state hash: %v", net.Peers[0].ID(), err))
	}
	for _, p := range net.Peers {
		led := p.Ledger()
		if err := led.VerifyChain(); err != nil {
			problems = append(problems, fmt.Sprintf("peer %s: %v", p.ID(), err))
		}
		if !bytes.Equal(led.LastHash(), ref.LastHash()) {
			problems = append(problems, fmt.Sprintf("peer %s: tip hash differs from %s", p.ID(), net.Peers[0].ID()))
		}
		state, err := led.StateHash()
		if err != nil {
			problems = append(problems, fmt.Sprintf("peer %s: state hash: %v", p.ID(), err))
		} else if !bytes.Equal(state, refState) {
			problems = append(problems, fmt.Sprintf("peer %s: state hash differs from %s", p.ID(), net.Peers[0].ID()))
		}
	}

	blocks, err := chain(net, 0)
	if err != nil {
		return append(problems, err.Error())
	}
	type entry struct {
		count int
		code  types.ValidationCode
	}
	onLedger := make(map[types.TxID]entry)
	for _, b := range blocks {
		for i, env := range b.Data {
			info, err := types.PeekEnvelopeInfo(env)
			if err != nil {
				problems = append(problems, fmt.Sprintf("block %d tx %d: %v", b.Header.Number, i, err))
				continue
			}
			e := onLedger[info.TxID]
			e.count++
			e.code = b.Metadata.ValidationFlags[i]
			onLedger[info.TxID] = e
		}
	}
	mismatches := 0
	for _, r := range seen {
		if r.kind != outcomeValid && r.kind != outcomeConflict {
			continue // never ordered, or the client never learned its fate
		}
		if e := onLedger[r.txID]; e.count != 1 || e.code != r.code {
			if mismatches++; mismatches <= 5 {
				problems = append(problems, fmt.Sprintf("tx %s: client saw %s, ledger holds it %d time(s) with %s", r.txID, r.code, e.count, e.code))
			}
		}
	}
	if mismatches > 5 {
		problems = append(problems, fmt.Sprintf("... and %d more ledger mismatches", mismatches-5))
	}
	return problems
}
