#!/bin/sh
# Re-records perf/baseline/results.jsonl from the repository root: ten untraced 20 s runs per workload, seeds 1-10.
rm -f perf/baseline/results.jsonl && for w in or_solo and5_raft smallbank_kafka durable_gossip; do for s in 1 2 3 4 5 6 7 8 9 10; do go run ./benchmark -workload "$w" -seed "$s" -seconds 20 -trace 0 -results perf/baseline/results.jsonl >/dev/null || exit 1; done; done
