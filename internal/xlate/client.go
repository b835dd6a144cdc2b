package xlate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"tnsr/internal/backend/mips"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/millicode"
	"tnsr/internal/retry"
)

// Client talks to a tnsxlated daemon: submit a codefile with its
// translation knobs, poll the content-addressed key, fetch the accelerated
// codefile, and re-verify every gate locally before trusting a byte of it.
// The service's determinism contract makes the result indistinguishable
// from a local core.Accelerate with the same options — test-pinned
// byte-identical — so callers can treat Accelerate here as a drop-in that
// trades CPU for a network round trip.
//
// Failure policy: transient trouble (transport errors, 5xx, 429, damaged
// response bytes the verify gates refuse) is retried under Retry's backoff
// inside Deadline; refusals (auth, size, a translation the service itself
// reports failed) are terminal immediately. A daemon restart that loses
// in-flight job state surfaces as a 404 mid-poll; the client re-submits —
// bounded — and the service's key dedup makes the replay idempotent.
type Client struct {
	base  string
	token string

	// HTTPClient issues the requests (the fault campaign wraps its
	// Transport). NewClient sets a 30s-timeout default.
	HTTPClient *http.Client

	// Retry is the transient-failure policy for individual submits and the
	// pacing floor for result polling. Zero value = retry defaults.
	Retry retry.Policy

	// PollInterval paces result polling (default 50ms); each not-ready poll
	// backs the interval off multiplicatively up to PollMax (default 1s).
	// Deadline bounds one Accelerate end to end (default 5m).
	PollInterval time.Duration
	PollMax      time.Duration
	Deadline     time.Duration

	// MaxResubmits bounds how many times one Accelerate re-submits after
	// the service forgets the key mid-poll (daemon restart). Default 2.
	MaxResubmits int
}

// NewClient builds a client for a tnsxlated base URL. An empty token sends
// no Authorization header.
func NewClient(base, token string) *Client {
	return &Client{
		base:         strings.TrimSuffix(base, "/"),
		token:        token,
		HTTPClient:   &http.Client{Timeout: 30 * time.Second},
		PollInterval: 50 * time.Millisecond,
		PollMax:      time.Second,
		Deadline:     5 * time.Minute,
		MaxResubmits: 2,
	}
}

func (c *Client) pollMax() time.Duration {
	if c.PollMax <= 0 {
		return time.Second
	}
	return c.PollMax
}

func (c *Client) do(req *http.Request) (*http.Response, error) {
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	return hc.Do(req)
}

// Submit sends one codefile + options and returns the service's status —
// the content-addressed key plus where the translation stands. Transient
// failures are retried under Retry; a refusal is returned typed
// (*retry.HTTPError) and unretried.
func (c *Client) Submit(f *codefile.File, opts core.Options) (*Status, error) {
	return c.SubmitContext(context.Background(), f, opts)
}

// SubmitContext is Submit bounded by ctx.
func (c *Client) SubmitContext(ctx context.Context, f *codefile.File, opts core.Options) (*Status, error) {
	req, err := EncodeRequest(f, opts)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("xlate: encode submit: %w", err)
	}
	var st *Status
	err = c.Retry.Do(ctx, func() error {
		st, err = c.submitOnce(ctx, body)
		return err
	})
	return st, err
}

// submitOnce is one POST attempt.
func (c *Client) submitOnce(ctx context.Context, body []byte) (*Status, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+strings.TrimSuffix(xlatePrefix, "/"), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := c.do(hr)
	if err != nil {
		return nil, fmt.Errorf("xlate: submit: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("xlate: submit: %w", err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("xlate: submit: %w",
			retry.NewHTTPError(resp, strings.TrimSpace(string(data))))
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		// A truncated or corrupted answer: transient by policy.
		return nil, fmt.Errorf("xlate: submit: bad status: %w", err)
	}
	if st.Schema != StatusSchema {
		return nil, fmt.Errorf("xlate: submit: unexpected schema %q", st.Schema)
	}
	return &st, nil
}

// Fetch GETs the accelerated codefile under key. (nil, nil, nil) means the
// translation is still queued or running; a failed translation or missing
// key is an error (typed *retry.HTTPError for HTTP refusals).
func (c *Client) Fetch(key string) (*codefile.File, []byte, error) {
	return c.FetchContext(context.Background(), key)
}

// FetchContext is Fetch bounded by ctx. It performs exactly one request;
// AccelerateContext owns the retry/poll loop around it.
func (c *Client) FetchContext(ctx context.Context, key string) (*codefile.File, []byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+xlatePrefix+key, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.do(hr)
	if err != nil {
		return nil, nil, fmt.Errorf("xlate: fetch: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, DefaultMaxBody))
	if err != nil {
		return nil, nil, fmt.Errorf("xlate: fetch: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusAccepted:
		return nil, nil, nil
	case http.StatusUnprocessableEntity:
		var st Status
		if json.Unmarshal(data, &st) == nil && st.Error != "" {
			return nil, nil, retry.Terminal(fmt.Errorf("xlate: remote translation failed: %s", st.Error))
		}
		return nil, nil, retry.Terminal(fmt.Errorf("xlate: remote translation failed"))
	default:
		return nil, nil, fmt.Errorf("xlate: fetch: %w",
			retry.NewHTTPError(resp, strings.TrimSpace(string(data))))
	}
	cf, err := codefile.Read(bytes.NewReader(data))
	if err != nil {
		// Damaged bytes in flight: the strict parser refused them, the
		// server may well hold a good copy — transient, poll again.
		return nil, nil, fmt.Errorf("xlate: fetch: served codefile: %w", err)
	}
	return cf, data, nil
}

// Accelerate is core.Accelerate through the service: submit, poll, fetch,
// re-verify, graft. On success f carries the acceleration section and the
// bytes f would serialize to are identical to a local translation's. The
// client trusts nothing: the fetched codefile must parse (v5 checksums),
// match f's fingerprint, and pass AccelSection.Verify locally before its
// section is grafted.
func (c *Client) Accelerate(f *codefile.File, opts core.Options) error {
	return c.AccelerateContext(context.Background(), f, opts)
}

// AccelerateContext is Accelerate bounded by ctx (and still by Deadline,
// whichever ends first).
func (c *Client) AccelerateContext(ctx context.Context, f *codefile.File, opts core.Options) error {
	deadline := c.Deadline
	if deadline <= 0 {
		deadline = 5 * time.Minute
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	st, err := c.SubmitContext(ctx, f, opts)
	if err != nil {
		return err
	}
	if st.State == StateFailed {
		return fmt.Errorf("xlate: remote translation failed: %s", st.Error)
	}

	poll := c.PollInterval
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	resubmits := 0
	for {
		cf, _, err := c.FetchContext(ctx, st.Key)
		switch {
		case err == nil && cf != nil:
			return c.graft(f, cf, opts)
		case err == nil:
			// Still queued or running: keep polling, backing off.
		case isNotFound(err):
			// The service forgot the key mid-poll — a restarted daemon
			// lost its in-flight jobs. Re-submit: the key dedup makes the
			// replay idempotent (same bytes by determinism), bounded so a
			// store that keeps losing results cannot loop forever.
			if resubmits >= c.maxResubmits() {
				return fmt.Errorf("xlate: translation %s lost after %d re-submissions: %w",
					st.Key, resubmits, err)
			}
			resubmits++
			st2, serr := c.SubmitContext(ctx, f, opts)
			if serr != nil {
				return serr
			}
			if st2.State == StateFailed {
				return fmt.Errorf("xlate: remote translation failed: %s", st2.Error)
			}
			st = st2
		case retry.IsTerminal(err):
			return err
		default:
			// Transient fetch trouble (reset, 5xx, damaged bytes): stay in
			// the poll loop — the deadline, not the first flake, decides
			// when to give up. A server-directed Retry-After overrides the
			// poll pacing, capped like the policy caps it.
			if ra, ok := retry.RetryAfter(err); ok && ra > poll {
				poll = ra
				if max := c.pollMax(); poll > max {
					poll = max
				}
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("xlate: translation %s not ready within %v: %w",
				st.Key, deadline, ctx.Err())
		case <-time.After(poll):
		}
		if poll *= 2; poll > c.pollMax() {
			poll = c.pollMax()
		}
	}
}

func (c *Client) maxResubmits() int {
	if c.MaxResubmits < 0 {
		return 0
	}
	if c.MaxResubmits == 0 {
		return 2
	}
	return c.MaxResubmits
}

// isNotFound matches the service's 404 for a key it holds nothing under.
func isNotFound(err error) bool {
	var he *retry.HTTPError
	return errors.As(err, &he) && he.Status == http.StatusNotFound
}

// graft verifies the fetched codefile against the local one and adopts its
// acceleration section — only if it was translated for the requested
// target, so a server that ignores the backend cannot hand a runner code
// for the wrong machine.
func (c *Client) graft(f, cf *codefile.File, opts core.Options) error {
	if cf.Accel == nil {
		return fmt.Errorf("xlate: served codefile has no acceleration section")
	}
	want := opts.Backend
	if want == nil {
		want = mips.Default
	}
	if cf.Accel.BackendID != want.ID() {
		return fmt.Errorf("xlate: served codefile is for backend id %d, want %s (id %d)",
			cf.Accel.BackendID, want.Name(), want.ID())
	}
	if cf.Fingerprint() != f.Fingerprint() {
		return fmt.Errorf("xlate: served codefile fingerprint %016x does not match local %016x",
			cf.Fingerprint(), f.Fingerprint())
	}
	if err := cf.Accel.Verify(cf, int(millicode.CodeBase(opts.Space))); err != nil {
		return fmt.Errorf("xlate: served codefile fails verification: %w", err)
	}
	f.Accel = cf.Accel
	return nil
}
