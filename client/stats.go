package client

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// counters are the client's live reliability telemetry, updated
// atomically on the request path.
type counters struct {
	attempts          atomic.Int64
	retries           atomic.Int64
	successes         atomic.Int64
	failures          atomic.Int64
	fastFails         atomic.Int64
	retryAfterHonored atomic.Int64
	breakerOpens      atomic.Int64
	backoffNS         atomic.Int64
}

// Stats is a point-in-time snapshot of the client's retry telemetry.
type Stats struct {
	// Attempts counts HTTP round trips, first tries included.
	Attempts int64
	// Retries counts attempts beyond the first per call.
	Retries int64
	// Successes counts calls that returned a decoded 2xx.
	Successes int64
	// Failures counts failed attempts (each retry that fails counts).
	Failures int64
	// CircuitFastFails counts calls rejected by the open breaker
	// without touching the network.
	CircuitFastFails int64
	// RetryAfterHonored counts backoffs stretched to a server
	// Retry-After hint.
	RetryAfterHonored int64
	// BreakerOpens counts closed/half-open → open transitions.
	BreakerOpens int64
	// BackoffTotal is the cumulative backoff wait requested.
	BackoffTotal time.Duration
}

// Stats snapshots the client's counters.
func (c *Client) Stats() Stats {
	return Stats{
		Attempts:          c.stats.attempts.Load(),
		Retries:           c.stats.retries.Load(),
		Successes:         c.stats.successes.Load(),
		Failures:          c.stats.failures.Load(),
		CircuitFastFails:  c.stats.fastFails.Load(),
		RetryAfterHonored: c.stats.retryAfterHonored.Load(),
		BreakerOpens:      c.stats.breakerOpens.Load(),
		BackoffTotal:      time.Duration(c.stats.backoffNS.Load()),
	}
}

// ResetStats atomically swaps every counter to zero and returns the
// snapshot that was accumulated before the reset. Use it to scope
// telemetry to one run when a single client outlives several (soak
// iterations, load-generation phases): counters started fresh, the
// prior run's totals preserved. Each counter is swapped individually,
// so a concurrent request may land split across the returned snapshot
// and the fresh window — each event still counts exactly once.
func (c *Client) ResetStats() Stats {
	return Stats{
		Attempts:          c.stats.attempts.Swap(0),
		Retries:           c.stats.retries.Swap(0),
		Successes:         c.stats.successes.Swap(0),
		Failures:          c.stats.failures.Swap(0),
		CircuitFastFails:  c.stats.fastFails.Swap(0),
		RetryAfterHonored: c.stats.retryAfterHonored.Swap(0),
		BreakerOpens:      c.stats.breakerOpens.Swap(0),
		BackoffTotal:      time.Duration(c.stats.backoffNS.Swap(0)),
	}
}

// WriteMetrics renders the client counters in Prometheus text
// exposition format, each family under its # TYPE line, mirroring the
// daemon's /metrics vocabulary so both sides of a chaos run can be
// scraped the same way.
func (c *Client) WriteMetrics(w io.Writer) {
	st := c.Stats()
	fmt.Fprintf(w, "# TYPE memmodel_client_attempts_total counter\nmemmodel_client_attempts_total %d\n", st.Attempts)
	fmt.Fprintf(w, "# TYPE memmodel_client_retries_total counter\nmemmodel_client_retries_total %d\n", st.Retries)
	fmt.Fprintf(w, "# TYPE memmodel_client_successes_total counter\nmemmodel_client_successes_total %d\n", st.Successes)
	fmt.Fprintf(w, "# TYPE memmodel_client_failures_total counter\nmemmodel_client_failures_total %d\n", st.Failures)
	fmt.Fprintf(w, "# TYPE memmodel_client_circuit_fast_fails_total counter\nmemmodel_client_circuit_fast_fails_total %d\n", st.CircuitFastFails)
	fmt.Fprintf(w, "# TYPE memmodel_client_retry_after_honored_total counter\nmemmodel_client_retry_after_honored_total %d\n", st.RetryAfterHonored)
	fmt.Fprintf(w, "# TYPE memmodel_client_breaker_opens_total counter\nmemmodel_client_breaker_opens_total %d\n", st.BreakerOpens)
	fmt.Fprintf(w, "# TYPE memmodel_client_backoff_seconds_total counter\nmemmodel_client_backoff_seconds_total %.6f\n", st.BackoffTotal.Seconds())
}
