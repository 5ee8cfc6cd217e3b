package workload

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/fabnet"
	"fabricsim/internal/metrics"
	"fabricsim/internal/policy"
)

func testNet(t *testing.T, col *metrics.Collector) *fabnet.Network {
	t.Helper()
	n, err := fabnet.Build(fabnet.Config{
		Orderer:           fabnet.Solo,
		NumEndorsingPeers: 2,
		Policy:            policy.OrOverPeers(2),
		Model:             costmodel.Default(0.05),
		Collector:         col,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	if err := n.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRunGeneratesAtRate(t *testing.T) {
	n := testNet(t, nil)
	stats, err := Run(context.Background(), n.Gateways, Config{
		Rate:     40,
		Duration: 3 * time.Second,
		Model:    costmodel.Default(0.05),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 40 tps x 3s = 120 expected arrivals.
	if stats.Submitted < 100 || stats.Submitted > 140 {
		t.Errorf("submitted = %d, want ~120", stats.Submitted)
	}
	if stats.Succeeded == 0 {
		t.Errorf("nothing committed: %+v", stats)
	}
	if stats.Submitted != stats.Succeeded+stats.Failed {
		t.Errorf("accounting mismatch: %+v", stats)
	}
}

func TestRunPipelineWindowScalesThroughput(t *testing.T) {
	// The same network must commit strictly more transactions when each
	// client pipelines 16 in flight than when it runs the legacy
	// one-at-a-time closed loop (window=1).
	committed := make(map[int]int64)
	for _, window := range []int{1, 16} {
		n := testNet(t, nil)
		stats, err := Run(context.Background(), n.Gateways, Config{
			Mode:     Pipeline,
			Window:   window,
			Duration: 3 * time.Second,
			Model:    costmodel.Default(0.05),
			Seed:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Submitted == 0 || stats.Succeeded == 0 {
			t.Fatalf("window %d: nothing committed: %+v", window, stats)
		}
		if stats.Submitted != stats.Succeeded+stats.Failed {
			t.Fatalf("window %d: accounting mismatch: %+v", window, stats)
		}
		committed[window] = stats.Succeeded
	}
	if committed[16] <= committed[1] {
		t.Errorf("pipelining did not scale: window=1 committed %d, window=16 committed %d",
			committed[1], committed[16])
	}
}

func TestRunValidation(t *testing.T) {
	n := testNet(t, nil)
	if _, err := Run(context.Background(), n.Gateways, Config{Rate: 0, Duration: time.Second}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := Run(context.Background(), n.Gateways, Config{Rate: 10, Duration: 0}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := Run(context.Background(), nil, Config{Rate: 10, Duration: time.Second}); err == nil {
		t.Error("no clients accepted")
	}
}

func TestZipfSkewsKeyPopularity(t *testing.T) {
	st := &runState{cfg: Config{KeySpace: 100, ZipfS: 2.0, Seed: 7, Fn: "write"}, value: []byte("v")}
	gen := st.newGen(0, 1)
	counts := make(map[int]int)
	for i := 0; i < 2000; i++ {
		counts[gen.pick(100)]++
	}
	// Rank 0 must dominate under s=2 skew; a uniform draw would give
	// each key ~20 hits.
	if counts[0] < 500 {
		t.Errorf("hottest key drew %d of 2000, want Zipfian concentration", counts[0])
	}
	// Determinism: the same seed reproduces the same draw sequence.
	g1, g2 := st.newGen(3, 4), st.newGen(3, 4)
	for i := 0; i < 100; i++ {
		if a, b := g1.pick(100), g2.pick(100); a != b {
			t.Fatalf("draw %d: %d != %d with equal seeds", i, a, b)
		}
	}
}

func TestZipfValidation(t *testing.T) {
	n := testNet(t, nil)
	if _, err := Run(context.Background(), n.Gateways, Config{
		Rate: 10, Duration: time.Second, ZipfS: 0.9, KeySpace: 10,
	}); err == nil {
		t.Error("ZipfS <= 1 accepted")
	}
	if _, err := Run(context.Background(), n.Gateways, Config{
		Rate: 10, Duration: time.Second, ZipfS: 1.5,
	}); err == nil {
		t.Error("ZipfS without a key space accepted")
	}
	if _, err := Run(context.Background(), n.Gateways, Config{
		Rate: 10, Duration: time.Second, Profile: "nope",
	}); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestSmallBankProfileOpMix(t *testing.T) {
	cfg := Config{Profile: ProfileSmallBank, Rate: 1, Seed: 11, Duration: time.Second}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.chaincode() != "smallbank" || cfg.KeySpace != 1000 {
		t.Fatalf("profile defaults = chaincode %q keyspace %d", cfg.chaincode(), cfg.KeySpace)
	}
	st := &runState{cfg: cfg, value: []byte("v")}
	gen := st.newGen(0, 1)
	fns := make(map[string]int)
	for i := 0; i < 2000; i++ {
		_, fn, args := st.nextCall(gen)
		fns[fn]++
		switch fn {
		case "sendpayment":
			if len(args) != 3 {
				t.Fatalf("sendpayment args = %d", len(args))
			}
		case "amalgamate":
			if len(args) != 2 {
				t.Fatalf("amalgamate args = %d", len(args))
			}
		case "query":
			if len(args) != 1 {
				t.Fatalf("query args = %d", len(args))
			}
		case "deposit", "transact", "writecheck":
			if len(args) != 2 {
				t.Fatalf("%s args = %d", fn, len(args))
			}
		default:
			t.Fatalf("unexpected fn %q", fn)
		}
	}
	for _, fn := range []string{"deposit", "transact", "sendpayment", "writecheck", "amalgamate", "query"} {
		if fns[fn] == 0 {
			t.Errorf("op %s never drawn in 2000 calls", fn)
		}
	}
	// send-payment's 25% share should be the plurality.
	if fns["sendpayment"] < fns["deposit"]/2 {
		t.Errorf("op mix off: %v", fns)
	}
}

func TestRunKeySpaceContention(t *testing.T) {
	col := metrics.NewCollector()
	n := testNet(t, col)
	model := costmodel.Default(0.05)
	stats, err := Run(context.Background(), n.Gateways, Config{
		Rate:     60,
		Duration: 3 * time.Second,
		Model:    model,
		Fn:       "readwrite",
		KeySpace: 2, // two hot keys -> MVCC conflicts
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed == 0 {
		t.Error("no failures despite 2-key readwrite contention")
	}
	sum := col.Summarize(metrics.SummaryOptions{TimeScale: model.TimeScale})
	if sum.Invalid == 0 {
		t.Error("collector recorded no invalid txs")
	}
}

// call is one drawn transaction, its arguments formatted.
type call struct{ channel, fn, args string }

// TestClientStreamsIgnoreInterleaving requires each client's (channel,
// fn, args) stream to depend only on the seed, the client's index and
// the client count: 16 clients draw their calls one client after
// another, then in a shuffled interleaving, and every client's stream
// must come out the same. With fresh keys, the run's keys are k1...kN
// and each client sends to one channel, an equal number of clients per
// channel; SmallBank's zipfian stream is checked too.
func TestClientStreamsIgnoreInterleaving(t *testing.T) {
	const clients, calls = 16, 50
	streams := func(cfg Config, order []int) [clients][]call {
		st := &runState{cfg: cfg, value: []byte("v")}
		var gens [clients]*txgen
		for ci := range gens {
			gens[ci] = st.newGen(ci, clients)
		}
		var out [clients][]call
		for _, ci := range order {
			channel, fn, args := st.nextCall(gens[ci])
			out[ci] = append(out[ci], call{channel, fn, fmt.Sprintf("%q", args)})
		}
		return out
	}
	inTurn := make([]int, 0, clients*calls)
	for ci := range clients {
		for range calls {
			inTurn = append(inTurn, ci)
		}
	}
	shuffled := slices.Clone(inTurn)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	for _, nch := range []int{1, 2, 4, 8} {
		var channels []string
		for c := 1; c <= nch; c++ {
			channels = append(channels, fmt.Sprintf("ch%d", c))
		}
		for _, cfg := range []Config{
			{Fn: "write", Seed: 3, Channels: channels},
			{Profile: ProfileSmallBank, KeySpace: 1000, ZipfS: 1.2, Seed: 3, Channels: channels},
		} {
			name := fmt.Sprintf("%d channels, profile %q", nch, cfg.Profile)
			want, got := streams(cfg, inTurn), streams(cfg, shuffled)
			perChannel := make(map[string]int)
			written := make(map[string]bool)
			for ci, stream := range want {
				if !slices.Equal(stream, got[ci]) {
					t.Errorf("%s: client %d's stream depends on the interleaving", name, ci)
				}
				for _, c := range stream {
					if c.channel != stream[0].channel {
						t.Fatalf("%s: client %d sends to %s and to %s", name, ci, stream[0].channel, c.channel)
					}
					written[c.args] = true
				}
				perChannel[stream[0].channel]++
			}
			for _, ch := range channels {
				if perChannel[ch] != clients/nch {
					t.Errorf("%s: %d clients send to %s, want %d", name, perChannel[ch], ch, clients/nch)
				}
			}
			for k := 1; cfg.Profile == "" && k <= clients*calls; k++ {
				if args := fmt.Sprintf(`["k%d" "v"]`, k); !written[args] {
					t.Fatalf("%s: no call wrote k%d", name, k)
				}
			}
		}
	}
}
