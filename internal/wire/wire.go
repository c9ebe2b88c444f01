// Package wire is the schema of the telamallocd line protocol, version 1
// (DESIGN.md §12): one JSON request per line, one JSON report per line,
// order not guaranteed under concurrency, correlation by "id". It exists so
// the daemon (cmd/telamallocd) and the resilient client (internal/client)
// marshal the same bytes from one definition instead of drifting apart.
//
// The schema structs carry no behaviour beyond marshalling; protocol
// *semantics* — retry floors, ambiguity, idempotence — live with the
// endpoints. The typed ErrorCode constants are the machine-readable half of
// every rejection and shed: a client must be able to decide "retry or give
// up" without parsing prose.
package wire

// Version is the wire protocol version this schema describes. Requests may
// omit "v" (treated as Version); reports always carry it.
const Version = 1

// Buffer is one allocation interval in a request.
type Buffer struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	Size  int64 `json:"size"`
	Align int64 `json:"align,omitempty"`
}

// Request is one allocation request line.
//
// Priority and Tenant are optional overload-control fields added within
// protocol version 1: absent means "batch" class and the anonymous tenant,
// and daemons predating them ignore unknown JSON fields, so both directions
// round-trip (DESIGN.md §14).
type Request struct {
	V         int      `json:"v,omitempty"`
	ID        string   `json:"id,omitempty"`
	Name      string   `json:"name,omitempty"`
	Memory    int64    `json:"memory"`
	Buffers   []Buffer `json:"buffers"`
	MaxSteps  int64    `json:"max_steps,omitempty"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
	// Priority selects the admission class: "interactive", "batch", or
	// "background". Empty means "batch". Anything else is rejected with
	// CodeBadRequest — silently downgrading a typo'd "interactive" would
	// hide the misconfiguration exactly when latency matters.
	Priority string `json:"priority,omitempty"`
	// Tenant attributes the request to a fairness domain for per-tenant
	// token buckets and in-flight share limits. Empty bypasses tenant
	// accounting (the anonymous tenant is never throttled; isolation is
	// opt-in per request, not imposed on unlabelled traffic).
	Tenant string `json:"tenant,omitempty"`
}

// Response is one report line. Outcome is always set; ErrorCode is set on
// typed rejections and sheds so clients can branch without parsing Error.
type Response struct {
	V                int      `json:"v"`
	ID               string   `json:"id,omitempty"`
	Outcome          string   `json:"outcome"`
	ErrorCode        string   `json:"error_code,omitempty"`
	Winner           string   `json:"winner,omitempty"`
	Offsets          []int64  `json:"offsets,omitempty"`
	Spilled          []int    `json:"spilled,omitempty"`
	SpillCost        int64    `json:"spill_cost,omitempty"`
	LowerBound       int64    `json:"lower_bound,omitempty"`
	Memory           int64    `json:"memory,omitempty"`
	SkippedByBreaker []string `json:"skipped_by_breaker,omitempty"`
	// HedgeWon is always false, so the field never appears on the wire.
	// The server no longer races a hedge; the field stays so v1 decoders
	// that know it keep working.
	HedgeWon     bool    `json:"hedge_won,omitempty"`
	CacheHit     bool    `json:"cache_hit,omitempty"`
	Deduped      bool    `json:"deduped,omitempty"`
	HintReplayed bool    `json:"hint_replayed,omitempty"`
	QueueWaitMS  float64 `json:"queue_wait_ms,omitempty"`
	ElapsedMS    float64 `json:"elapsed_ms,omitempty"`
	RetryAfterMS float64 `json:"retry_after_ms,omitempty"`
	// DegradedByBrownout marks a verdict produced while the server's
	// brownout controller had the ladder degraded (shrunk step pots or
	// search skipped). The answer is still valid — the marker tells the
	// client it was bought at reduced quality so latency-sensitive callers
	// can decide to re-ask later.
	DegradedByBrownout bool   `json:"degraded_by_brownout,omitempty"`
	Error              string `json:"error,omitempty"`
}

// Terminal outcomes a report can carry.
const (
	OutcomeSolved    = "solved"
	OutcomeDegraded  = "degraded"
	OutcomeFailed    = "failed"
	OutcomeShed      = "shed"
	OutcomeCancelled = "cancelled"
	OutcomeRejected  = "rejected"
)

// Typed error codes. Rejections and sheds carry exactly one of these; a
// report with an empty ErrorCode is a pipeline verdict, not a protocol or
// capacity event.
const (
	// CodeBadRequest rejects a line that is not valid JSON for the
	// request schema. Not retryable: the same bytes will fail again.
	CodeBadRequest = "bad_request"
	// CodeUnsupportedVersion rejects a request whose "v" is not the
	// protocol this daemon speaks. Not retryable against this daemon.
	CodeUnsupportedVersion = "unsupported_version"
	// CodeDraining rejects a request admitted after shutdown began.
	// Retryable: the daemon (or its replacement) may come back.
	CodeDraining = "draining"
	// CodeTooManyConnections sheds a whole connection at accept time:
	// the per-daemon connection limit is reached. Retryable after the
	// report's retry_after_ms floor plus client-side jitter.
	CodeTooManyConnections = "too_many_connections"
	// CodeOverloaded sheds one request: the admission queue is full.
	// Retryable after retry_after_ms plus client-side jitter.
	CodeOverloaded = "overloaded"
	// CodeLineTooLong rejects a request line over the daemon's line cap.
	// The connection closes after the report: the rest of the oversized
	// line cannot be resynchronized. Not retryable as-is.
	CodeLineTooLong = "line_too_long"
	// CodeTruncatedLine rejects a final line with no newline (mid-line
	// disconnect). The peer that half-sent it is usually gone; the report
	// is best-effort so the failure is visible rather than silent.
	CodeTruncatedLine = "truncated_line"
	// CodeIdleTimeout closes a connection that sent no byte for the
	// daemon's idle window. Reconnecting is the retry.
	CodeIdleTimeout = "idle_timeout"
	// CodeShuttingDown closes a connection because the daemon is
	// draining. Retryable against the restarted daemon.
	CodeShuttingDown = "shutting_down"
	// CodeWatchdogKilled fails a request whose solve overran the watchdog
	// budget multiple and was force-cancelled. Retrying the same request
	// with the same budget will likely overrun again.
	CodeWatchdogKilled = "watchdog_killed"
	// CodeDeadlineExceededInQueue fails a request whose budget expired
	// while it was still queued — no solver step was spent on it. Not
	// retryable: the same budget pushed through the same congestion will
	// expire again; the client should raise the budget or back off.
	CodeDeadlineExceededInQueue = "deadline_exceeded_in_queue"
	// CodeTenantOverloaded sheds one request because its tenant exhausted
	// its token bucket or in-flight share — the daemon as a whole may be
	// fine. Retryable after retry_after_ms plus client-side jitter.
	CodeTenantOverloaded = "tenant_overloaded"
)

// RetryableCode reports whether a typed code names a transient condition a
// client may retry against the same address (with backoff and jitter; see
// internal/client). Codes not listed are permanent for the given bytes.
func RetryableCode(code string) bool {
	switch code {
	case CodeDraining, CodeTooManyConnections, CodeOverloaded,
		CodeIdleTimeout, CodeShuttingDown, CodeTenantOverloaded:
		return true
	}
	return false
}
