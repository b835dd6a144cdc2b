// Package retry is the service tier's one shared failure policy: every
// client that crosses a network or storage boundary (xlate.Client,
// profsrv.Client, the fleet PGO loop) retries transient failures through
// the same capped exponential backoff with seeded jitter, classifies
// errors the same way (a 401 is never worth a second attempt; a connection
// reset almost always is), and guards repeatedly-failing dependencies with
// the same circuit breaker.
//
// The classification contract:
//
//   - An error wrapped by Terminal, or an *HTTPError whose status is a
//     client error other than 408/429, stops the loop immediately — the
//     request was understood and refused, and resending it cannot help.
//   - An *HTTPError with status 429 or 503 is retryable and its
//     Retry-After (when the server sent one) becomes the next delay,
//     capped at the policy's MaxDelay so a hostile or confused server
//     cannot park a client forever.
//   - Everything else — transport errors, timeouts, 5xx, truncated or
//     corrupted responses the strict parsers refuse — is presumed
//     transient and retried until attempts or the context run out.
//
// Determinism: jitter draws from a seeded stream, so a test (or a fault
// campaign) that pins Policy.Seed observes one reproducible schedule.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Default policy knobs; zero values in Policy fall back to these.
const (
	DefaultMaxAttempts = 4
	DefaultBaseDelay   = 25 * time.Millisecond
	DefaultMaxDelay    = 2 * time.Second
	DefaultMultiplier  = 2.0
)

// Policy is a capped exponential backoff. The zero value is usable and
// means the defaults above. Policies are values: copying one is cheap and
// safe, and every Do call derives its own jitter stream from Seed.
type Policy struct {
	// MaxAttempts bounds the total tries, first attempt included
	// (<= 0 means DefaultMaxAttempts; 1 means no retries).
	MaxAttempts int

	// BaseDelay is the backoff before the second attempt; each further
	// delay multiplies by Multiplier and caps at MaxDelay.
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64

	// Seed seeds the jitter stream: each delay is drawn uniformly from
	// [delay/2, delay], so synchronized clients fan out instead of
	// reconverging on the struggling server every cycle.
	Seed int64

	// Sleep, when non-nil, replaces the context-aware timer wait — tests
	// and campaigns use it to run schedules without wall-clock time.
	Sleep func(ctx context.Context, d time.Duration) error

	// Counters, when non-nil, accumulates what the loop did.
	Counters *Counters
}

// Counters aggregates retry activity across calls; safe for concurrent
// use. Clients expose them so /metrics can report how hard the edges are
// working.
type Counters struct {
	Attempts  atomic.Int64 // operations started (every try)
	Retries   atomic.Int64 // tries after the first
	Terminal  atomic.Int64 // loops stopped by a terminal error
	Exhausted atomic.Int64 // loops that ran out of attempts or context
}

func (p Policy) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return p.MaxAttempts
}

func (p Policy) baseDelay() time.Duration {
	if p.BaseDelay <= 0 {
		return DefaultBaseDelay
	}
	return p.BaseDelay
}

func (p Policy) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return DefaultMaxDelay
	}
	return p.MaxDelay
}

func (p Policy) multiplier() float64 {
	if p.Multiplier < 1 {
		return DefaultMultiplier
	}
	return p.Multiplier
}

// Delay returns the backoff before attempt n (n = 1 is the delay between
// the first and second tries), without jitter. Exposed so tests can pin
// the envelope the jittered schedule must stay inside.
func (p Policy) Delay(n int) time.Duration {
	d := float64(p.baseDelay())
	for i := 1; i < n; i++ {
		d *= p.multiplier()
		if d >= float64(p.maxDelay()) {
			return p.maxDelay()
		}
	}
	if d > float64(p.maxDelay()) {
		d = float64(p.maxDelay())
	}
	return time.Duration(d)
}

// Do runs op until it succeeds, fails terminally, exhausts MaxAttempts, or
// ctx is done. The returned error is op's last error (wrapped context
// error when the wait was cut short).
func (p Policy) Do(ctx context.Context, op func() error) error {
	// The jitter source is seeded at the first jittered wait: most calls
	// succeed at once, and seeding costs a 5 KB state and its fill.
	var rng *rand.Rand
	var err error
	for attempt := 1; ; attempt++ {
		if p.Counters != nil {
			p.Counters.Attempts.Add(1)
		}
		err = op()
		if err == nil {
			return nil
		}
		if IsTerminal(err) {
			if p.Counters != nil {
				p.Counters.Terminal.Add(1)
			}
			return err
		}
		if attempt >= p.maxAttempts() {
			if p.Counters != nil {
				p.Counters.Exhausted.Add(1)
			}
			return err
		}
		d := p.Delay(attempt)
		// A server-directed Retry-After overrides the schedule but never
		// the cap: the policy's MaxDelay is the longest this client is
		// willing to be parked.
		if ra, ok := RetryAfter(err); ok {
			d = ra
			if d > p.maxDelay() {
				d = p.maxDelay()
			}
		} else if d > 0 {
			if rng == nil {
				rng = rand.New(rand.NewSource(p.Seed))
			}
			d = d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
		}
		if werr := p.sleep(ctx, d); werr != nil {
			if p.Counters != nil {
				p.Counters.Exhausted.Add(1)
			}
			return fmt.Errorf("%w (after: %w)", werr, err)
		}
		if p.Counters != nil {
			p.Counters.Retries.Add(1)
		}
	}
}

func (p Policy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// terminalError marks an error the retry loop must not resend.
type terminalError struct{ err error }

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

// Terminal wraps err so IsTerminal reports true: the operation was
// understood and refused, and repeating it cannot change the answer.
func Terminal(err error) error {
	if err == nil {
		return nil
	}
	return &terminalError{err: err}
}

// IsTerminal reports whether err (or anything it wraps) should stop a
// retry loop: an explicit Terminal wrap, a non-retryable HTTP status, or a
// context that is already done.
func IsTerminal(err error) bool {
	var te *terminalError
	if errors.As(err, &te) {
		return true
	}
	var he *HTTPError
	if errors.As(err, &he) {
		return !RetryableStatus(he.Status)
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// HTTPError is a typed non-2xx response: the status decides
// retryability and a parsed Retry-After steers the backoff.
type HTTPError struct {
	Status     int
	Body       string        // bounded server message, for diagnostics
	RetryAfter time.Duration // 0 when the server sent none
}

func (e *HTTPError) Error() string {
	if e.Body == "" {
		return fmt.Sprintf("http status %d", e.Status)
	}
	return fmt.Sprintf("http status %d: %s", e.Status, e.Body)
}

// NewHTTPError builds the typed error from a response's status line,
// bounded body, and Retry-After header.
func NewHTTPError(resp *http.Response, body string) *HTTPError {
	e := &HTTPError{Status: resp.StatusCode, Body: body}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// RetryableStatus reports whether a status code is worth another attempt:
// 408/429 (the server asked for one) and every 5xx. 400, 401, 404, 409,
// 413 and the other 4xx are refusals — the bytes were received and judged.
func RetryableStatus(status int) bool {
	switch {
	case status == http.StatusRequestTimeout, status == http.StatusTooManyRequests:
		return true
	case status >= 500:
		return true
	}
	return false
}

// RetryAfter extracts a server-directed delay from err, when one exists.
func RetryAfter(err error) (time.Duration, bool) {
	var he *HTTPError
	if errors.As(err, &he) && he.RetryAfter > 0 {
		return he.RetryAfter, true
	}
	return 0, false
}
