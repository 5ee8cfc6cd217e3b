package gateway

import (
	"testing"
	"time"

	"fabricsim/internal/metrics"
	"fabricsim/internal/types"
)

// TestInvokeRetryRecordsAttempts is the retry-accounting regression
// test: forced MVCC conflicts must leave one TxRecord per attempt with
// the attempt number set, the summary must count the retried
// transaction and report its final-attempt latency (which excludes
// retry backoff), and the tracer must stitch all attempts under one
// TraceID whose critical path surfaces the backoff gap.
func TestInvokeRetryRecordsAttempts(t *testing.T) {
	// retrySleep scales by the stub model's TimeScale (0.01), so the two
	// backoffs sleep ~4ms and ~8ms of wall time.
	backoff := 400 * time.Millisecond
	scaledBackoff := 4 * time.Millisecond
	rc := RetryConfig{
		MaxAttempts:    3,
		InitialBackoff: backoff,
	}
	for _, path := range retryPaths {
		t.Run(path.name, func(t *testing.T) {
			r := runRetry(t, path, rc, func(attempt int) types.ValidationCode {
				if attempt >= 3 {
					return types.ValidationValid
				}
				return types.ValidationMVCCConflict
			})
			if r.err != nil || !r.st.Committed {
				t.Fatalf("status = %+v, %v", r.st, r.err)
			}
			r.checkAttempts(t, 3)

			sum := r.col.Summarize(metrics.SummaryOptions{
				TimeScale:   1,
				WindowStart: r.start.Add(-time.Second),
				WindowEnd:   time.Now().Add(time.Second),
			})
			if sum.FinalAttemptLatency.Count != 1 {
				t.Fatalf("FinalAttemptLatency.Count = %d, want 1", sum.FinalAttemptLatency.Count)
			}
			// Final-attempt latency excludes the two backoff sleeps the
			// submission's wall time includes.
			if got := sum.FinalAttemptLatency.Avg; got >= r.wall-scaledBackoff {
				t.Fatalf("final-attempt latency %s not below wall %s minus backoff", got, r.wall)
			}
			if d := r.backoff(t); d < scaledBackoff {
				t.Fatalf("retry-backoff phase %s, want >= %s", d, scaledBackoff)
			}
		})
	}
}
