package bench

import (
	"fmt"
	"time"

	"fabricsim/internal/fabnet"
	"fabricsim/internal/policy"
)

// Endorse-sweep configuration. After the staged committer (PR 3) the
// validate phase sustains ~800+ tps, so the execute phase is the
// system bottleneck again — exactly the paper's Table II wall. The
// sweep models a compute-heavy contract (endorseChaincodeExec of
// contract logic per invocation), which pins one replica's endorsement
// capacity near ~100 tps — far below both the committer's ceiling and
// the client pool's aggregate CPU — so the only way throughput moves is
// by adding endorsing replicas. The swept variables are
// EndorsersPerOrg (1 -> 8) and the gateway balancer, under OR and AND2
// policies over two orgs.
const (
	endorseSweepOrgs    = 2
	endorseSweepClients = 24
	endorseSweepWindow  = 40
	// endorseChaincodeExec is the modeled contract-logic CPU per
	// invocation: heavy enough that a single replica saturates around
	// ~75 tps while 8 cores x (cost/replicas + commit tax) keeps
	// scaling past 500 tps at 8 replicas per org.
	endorseChaincodeExec = 200 * time.Millisecond
	// The staged committer keeps the validate phase out of the way.
	endorseCommitters  = 4
	endorseCommitDepth = 2
	// endorsePerturbWindow shrinks the per-client window for the
	// perturbation rows. Blind rotation keeps assigning 1/(2*replicas)
	// of all arrivals to the throttled replica, so its queue strands
	// window slots faster than it serves them; with a shallow window
	// those stranded slots quickly starve submission, while a
	// load-aware balancer routes around the backlog and keeps the
	// window turning.
	endorsePerturbWindow = 8
)

// figEndorse measures committed throughput, per-call endorsement
// latency (p50/p99), and balance skew as each org's endorser is
// replicated 1 -> 8 times. One replica per org with the round-robin
// balancer is wire-identical to the classic topology and must reproduce
// its numbers within noise; under OR, throughput then scales
// near-linearly with replicas until the staged committer or the client
// pool binds. The perturbation section throttles one replica's CPU and
// compares blind rotation against power-of-two-choices, whose in-flight
// signal routes around the slow replica.
var figEndorse = Experiment{
	ID:    "endorse",
	Title: "Endorse sweep — Throughput and Endorse Latency vs. Replicas x Balancer",
	note: fmt.Sprintf("(orderer=solo, orgs=%d, clients=%d, window=%d, committers=%d, depth=%d, chaincode=%s of contract logic)\n",
		endorseSweepOrgs, endorseSweepClients, endorseSweepWindow,
		endorseCommitters, endorseCommitDepth, endorseChaincodeExec),
	sweeps: []sweep{{"endorse", func(quick bool) (pcs []measurer) {
		or := soloOR(endorseSweepOrgs, endorseSweepClients)
		or.Window, or.Committers, or.Depth = endorseSweepWindow, endorseCommitters, endorseCommitDepth
		or.ChaincodeExec = endorseChaincodeExec
		and2 := or
		and2.Policy, and2.PolicyLabel = policy.AndOverPeers(endorseSweepOrgs), "AND2"
		// The full OR sweep compares all four balancers, AND2 (and
		// quick mode, which skips AND2) just the default against
		// power-of-two-choices; replicas per org go 1 -> 8, trimmed
		// in quick mode to the 1-replica baseline and the 4-replica
		// scaling point.
		for _, pc := range ifElse(quick, []PointConfig{or}, []PointConfig{or, and2}) {
			balancers := []string{"roundrobin", "random", "p2c", "ewma"}
			if quick || pc.PolicyLabel == "AND2" {
				balancers = []string{"roundrobin", "p2c"}
			}
			for _, pc.Balancer = range balancers {
				for _, pc.EndorsersPerOrg = range ifElse(quick, []int{1, 4}, []int{1, 2, 4, 8}) {
					pcs = append(pcs, pc)
				}
			}
		}
		if !quick {
			// Perturbation: 4 replicas/org under OR, one throttled.
			or.EndorsersPerOrg, or.Perturbed, or.Window = 4, 1, endorsePerturbWindow
			for _, or.Balancer = range []string{"roundrobin", "p2c"} {
				pcs = append(pcs, or)
			}
		}
		return pcs
	}}},
	tables: []table[Point]{{
		cols: []column[Point]{
			keyed("policy", colPolicy),
			{"balancer", "%-11s", "balancer", func(p Point) any { return p.Config.Balancer }},
			{"reps/org", "%9d", "replicas_per_org", func(p Point) any { return p.Config.EndorsersPerOrg }},
			{key: "perturbed", val: func(p Point) any { return p.Config.Perturbed }},
			keyed("throughput_tps", colThroughput),
			{"execute", "%12.1f", "execute_tps", func(p Point) any { return p.Summary.ExecuteTPS }},
			{"endorse p50", "%12.2f", "endorse_p50_s", func(p Point) any { return p.Summary.EndorseLatency.P50.Seconds() }},
			{"endorse p99", "%12.2f", "endorse_p99_s", func(p Point) any { return p.Summary.EndorseLatency.P99.Seconds() }},
			{"skew", "%8.2f", "endorse_skew", func(p Point) any { return p.Summary.EndorseSkew }},
		},
		group: func(p Point) string {
			if p.Config.Perturbed > 0 {
				return fmt.Sprintf("perturbation: %d replicas/org under %s, one replica at %d cores, window %d",
					p.Config.EndorsersPerOrg, p.Policy, fabnet.PerturbedEndorserCores, p.Window)
			}
			return fmt.Sprintf("policy=%s balancer=%s", p.Policy, p.Config.Balancer)
		},
	}},
}
