package fabnet

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/peer"
	"fabricsim/internal/policy"
	"fabricsim/internal/simtest"
	"fabricsim/internal/types"
)

// waitValidTxs polls until one peer's channel ledger holds the expected
// number of valid transactions. Invoke resolves on the client's event
// peer's commit, so the other peers may still be a block behind at that
// instant — asserting their ledgers without this grace window is a race.
func waitValidTxs(t *testing.T, p *peer.Peer, ch string, want int) {
	t.Helper()
	l, ok := p.LedgerFor(ch)
	if !ok {
		t.Fatalf("peer %s missing channel %s", p.ID(), ch)
	}
	var got int
	if !simtest.Until(2*time.Second, func() bool { got = l.Stats().ValidTxs; return got == want }) {
		t.Errorf("peer %s channel %s: valid txs = %d, want %d", p.ID(), ch, got, want)
	}
}

// TestMultiChannelConcurrentCommit drives transactions on all four
// channels concurrently and checks every channel orders and commits on
// every peer, with an intact per-channel hash chain.
func TestMultiChannelConcurrentCommit(t *testing.T) {
	n := buildAndStart(t, Config{
		Orderer:           Solo,
		NumEndorsingPeers: 2,
		Policy:            policy.OrOverPeers(2),
		Model:             costmodel.Default(0.05),
		Channels:          4,
	})
	ctx := context.Background()
	const perChannel = 6

	var wg sync.WaitGroup
	errs := make(chan error, len(n.ChannelIDs())*perChannel)
	for _, ch := range n.ChannelIDs() {
		for i := 0; i < perChannel; i++ {
			ch, i := ch, i
			gw := n.Gateways[i%len(n.Gateways)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				key := fmt.Sprintf("%s-k%d", ch, i)
				res, err := gw.Invoke(ctx, ch, ChaincodeBench, "write",
					[][]byte{[]byte(key), []byte("v")})
				if err != nil {
					errs <- fmt.Errorf("channel %s tx %d: %w", ch, i, err)
					return
				}
				if !res.Committed {
					errs <- fmt.Errorf("channel %s tx %d not committed: %s", ch, i, res.Code)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for _, p := range n.Peers {
		for _, ch := range n.ChannelIDs() {
			waitValidTxs(t, p, ch, perChannel)
		}
	}
	waitAgree(t, n.Peers, 2*time.Second)
}

// TestMultiChannelMVCCIsolation writes and read-modify-writes the SAME
// key on two different channels: because each channel has its own state
// DB, neither transaction may see an MVCC conflict from the other.
func TestMultiChannelMVCCIsolation(t *testing.T) {
	n := buildAndStart(t, Config{
		Orderer:           Solo,
		NumEndorsingPeers: 2,
		Policy:            policy.OrOverPeers(2),
		Model:             costmodel.Default(0.05),
		Channels:          2,
	})
	ctx := context.Background()
	gw := n.Gateways[0]

	// Seed the same key on both channels.
	for _, ch := range []string{"ch1", "ch2"} {
		if _, err := gw.Invoke(ctx, ch, ChaincodeBench, "write",
			[][]byte{[]byte("shared"), []byte("seed-" + ch)}); err != nil {
			t.Fatalf("seed %s: %v", ch, err)
		}
	}

	// Concurrent read-modify-write of the shared key on both channels.
	// On one channel these would contend; across channels they must not.
	var wg sync.WaitGroup
	results := make(map[string]*types.ValidationCode)
	var mu sync.Mutex
	for _, ch := range []string{"ch1", "ch2"} {
		ch := ch
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := gw.Invoke(ctx, ch, ChaincodeBench, "readwrite",
				[][]byte{[]byte("shared"), []byte("update-" + ch)})
			if err != nil {
				t.Errorf("channel %s: %v", ch, err)
				return
			}
			mu.Lock()
			results[ch] = &res.Code
			mu.Unlock()
		}()
	}
	wg.Wait()

	for _, ch := range []string{"ch1", "ch2"} {
		code, ok := results[ch]
		if !ok {
			continue // invoke error already reported
		}
		if *code != types.ValidationValid {
			t.Errorf("channel %s: code = %s, want VALID (cross-channel MVCC leak)", ch, *code)
		}
	}

	// The committed values must stay channel-local. Invoke returns on
	// the client's event peer's commit; poll briefly so the other peers
	// catch up.
	for _, p := range n.Peers {
		for _, ch := range []string{"ch1", "ch2"} {
			l, _ := p.LedgerFor(ch)
			want := "update-" + ch
			var got string
			if !simtest.Until(2*time.Second, func() bool {
				vv, ok, err := l.State().Get(ChaincodeBench, "shared")
				if err != nil {
					t.Fatalf("peer %s channel %s: %v", p.ID(), ch, err)
				}
				if ok {
					got = string(vv.Value)
				}
				return got == want
			}) {
				t.Errorf("peer %s channel %s: value = %q, want %q", p.ID(), ch, got, want)
			}
		}
	}
}

// TestMultiChannelBlockNumbering checks each channel numbers its blocks
// independently and monotonically from genesis on every peer.
func TestMultiChannelBlockNumbering(t *testing.T) {
	n := buildAndStart(t, Config{
		Orderer:           Solo,
		NumEndorsingPeers: 2,
		Policy:            policy.OrOverPeers(2),
		Model:             costmodel.Default(0.05),
		BatchSize:         1, // one block per tx: numbering advances per invoke
		Channels:          4,
	})
	ctx := context.Background()
	perChannel := []int{1, 2, 3, 4} // distinct heights per channel

	for ci, ch := range n.ChannelIDs() {
		for i := 0; i < perChannel[ci]; i++ {
			if _, err := n.Gateways[0].Invoke(ctx, ch, ChaincodeBench, "write",
				[][]byte{[]byte(fmt.Sprintf("k%d", i)), []byte("v")}); err != nil {
				t.Fatalf("channel %s tx %d: %v", ch, i, err)
			}
		}
	}

	for _, p := range n.Peers {
		for ci, ch := range n.ChannelIDs() {
			l, _ := p.LedgerFor(ch)
			wantHeight := uint64(perChannel[ci] + 1) // + genesis
			// Invoke futures resolve on the client's event peer; the
			// other peers commit the same block asynchronously, so give
			// them a bounded moment to catch up.
			if !simtest.Until(2*time.Second, func() bool { return l.Height() == wantHeight }) {
				got := l.Height()
				t.Errorf("peer %s channel %s: height = %d, want %d", p.ID(), ch, got, wantHeight)
				continue
			}
			for num := uint64(0); num < wantHeight; num++ {
				b, err := l.GetBlock(num)
				if err != nil {
					t.Fatalf("peer %s channel %s block %d: %v", p.ID(), ch, num, err)
				}
				if b.Header.Number != num {
					t.Errorf("peer %s channel %s: block at %d numbered %d", p.ID(), ch, num, b.Header.Number)
				}
				if num > 0 && b.Metadata.ChannelID != ch {
					t.Errorf("peer %s channel %s: block %d tagged %q", p.ID(), ch, num, b.Metadata.ChannelID)
				}
			}
		}
	}
}

// TestMultiChannelKafka orders on four channels through the Kafka
// substrate (one partition per channel) and checks all channels commit
// identically across peers.
func TestMultiChannelKafka(t *testing.T) {
	n := buildAndStart(t, Config{
		Orderer:           Kafka,
		NumOrderers:       2,
		NumKafkaBrokers:   3,
		NumEndorsingPeers: 2,
		Policy:            policy.OrOverPeers(2),
		Model:             costmodel.Default(0.05),
		Channels:          4,
	})
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, 4*3)
	for _, ch := range n.ChannelIDs() {
		for i := 0; i < 3; i++ {
			ch, i := ch, i
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := n.Gateways[i%len(n.Gateways)].Invoke(ctx, ch, ChaincodeBench, "write",
					[][]byte{[]byte(fmt.Sprintf("%s-%d", ch, i)), []byte("v")})
				if err != nil {
					errs <- fmt.Errorf("channel %s: %w", ch, err)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, p := range n.Peers {
		for _, ch := range n.ChannelIDs() {
			waitValidTxs(t, p, ch, 3)
		}
	}
	waitAgree(t, n.Peers, 2*time.Second)
}

// TestMultiChannelRaft orders on two channels through independent Raft
// groups and checks both channels elect leaders and commit.
func TestMultiChannelRaft(t *testing.T) {
	n := buildAndStart(t, Config{
		Orderer:           Raft,
		NumOrderers:       3,
		NumEndorsingPeers: 2,
		Policy:            policy.OrOverPeers(2),
		Model:             costmodel.Default(0.05),
		Channels:          2,
	})
	ctx := context.Background()
	for _, ch := range n.ChannelIDs() {
		if _, ok := n.RaftLeaderFor(ch); !ok {
			t.Fatalf("channel %s: no raft leader", ch)
		}
		res, err := n.Gateways[0].Invoke(ctx, ch, ChaincodeBench, "write",
			[][]byte{[]byte("k-" + ch), []byte("v")})
		if err != nil {
			t.Fatalf("channel %s: %v", ch, err)
		}
		if !res.Committed {
			t.Errorf("channel %s: %s", ch, res.Code)
		}
	}
	for _, p := range n.Peers {
		for _, ch := range n.ChannelIDs() {
			waitValidTxs(t, p, ch, 1)
		}
	}
}

// TestChannelIDs pins the channel names Build deploys for a count: the
// single "perf" channel below two, else "ch1".."chN".
func TestChannelIDs(t *testing.T) {
	for _, tc := range []struct {
		channels int
		want     string
	}{{0, "[perf]"}, {1, "[perf]"}, {2, "[ch1 ch2]"}, {4, "[ch1 ch2 ch3 ch4]"}} {
		cfg := Config{Channels: tc.channels}
		cfg.applyDefaults()
		if got := fmt.Sprint(cfg.channelIDs()); got != tc.want || cfg.ChannelID != cfg.channelIDs()[0] {
			t.Errorf("Channels %d: channels %s, default %q; want %s", tc.channels, got, cfg.ChannelID, tc.want)
		}
	}
}
