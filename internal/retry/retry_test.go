package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"testing"
	"time"
)

// collectSleeps returns a Sleep hook appending every wait to out.
func collectSleeps(out *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*out = append(*out, d)
		return nil
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	var sleeps []time.Duration
	var c Counters
	p := Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, Seed: 1,
		Sleep: collectSleeps(&sleeps), Counters: &c}
	calls := 0
	err := p.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err %v, calls %d", err, calls)
	}
	if len(sleeps) != 2 {
		t.Fatalf("sleeps %v", sleeps)
	}
	if c.Attempts.Load() != 3 || c.Retries.Load() != 2 || c.Terminal.Load() != 0 {
		t.Errorf("counters: attempts %d retries %d terminal %d",
			c.Attempts.Load(), c.Retries.Load(), c.Terminal.Load())
	}
}

// TestBackoffEnvelope: every jittered delay stays within [Delay/2, Delay]
// and the undithered schedule is capped exponential.
func TestBackoffEnvelope(t *testing.T) {
	p := Policy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 60 * time.Millisecond, Multiplier: 2, Seed: 7}
	wantBare := []time.Duration{10, 20, 40, 60, 60, 60, 60}
	for i, want := range wantBare {
		if got := p.Delay(i + 1); got != want*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, want*time.Millisecond)
		}
	}
	var sleeps []time.Duration
	p.Sleep = collectSleeps(&sleeps)
	p.Do(context.Background(), func() error { return errors.New("always") })
	if len(sleeps) != 7 {
		t.Fatalf("sleeps: %v", sleeps)
	}
	for i, d := range sleeps {
		lo, hi := p.Delay(i+1)/2, p.Delay(i+1)
		if d < lo || d > hi {
			t.Errorf("sleep %d = %v outside [%v, %v]", i, d, lo, hi)
		}
	}
}

// TestDoSeedsJitterOnlyToWait: a call that succeeds at once allocates
// nothing for its jitter, and the waits of one that retries are drawn in
// order from a source seeded with Seed.
func TestDoSeedsJitterOnlyToWait(t *testing.T) {
	p := Policy{Seed: 42}
	op := func() error { return nil }
	if n := testing.AllocsPerRun(100, func() { p.Do(context.Background(), op) }); n != 0 {
		t.Errorf("a first-try success allocates %v times", n)
	}
	var sleeps []time.Duration
	p = Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, Seed: 42,
		Sleep: collectSleeps(&sleeps)}
	p.Do(context.Background(), func() error { return errors.New("x") })
	rng := rand.New(rand.NewSource(42))
	for i, got := range sleeps {
		d := p.Delay(i + 1)
		if want := d/2 + time.Duration(rng.Int63n(int64(d/2)+1)); got != want {
			t.Fatalf("wait %d = %v, want %v", i+1, got, want)
		}
	}
	if len(sleeps) != 4 {
		t.Fatalf("%d waits, want 4", len(sleeps))
	}
}

// TestSeededJitterDeterministic: the same seed draws the same schedule.
func TestSeededJitterDeterministic(t *testing.T) {
	run := func(seed int64) []time.Duration {
		var sleeps []time.Duration
		p := Policy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, Seed: seed,
			Sleep: collectSleeps(&sleeps)}
		p.Do(context.Background(), func() error { return errors.New("x") })
		return sleeps
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("distinct seeds drew identical jitter (suspicious)")
	}
}

func TestTerminalStopsImmediately(t *testing.T) {
	var c Counters
	p := Policy{MaxAttempts: 5, Counters: &c,
		Sleep: func(context.Context, time.Duration) error { return nil }}
	calls := 0
	err := p.Do(context.Background(), func() error {
		calls++
		return Terminal(errors.New("denied"))
	})
	if calls != 1 || !IsTerminal(err) {
		t.Fatalf("calls %d, err %v", calls, err)
	}
	if c.Terminal.Load() != 1 {
		t.Errorf("terminal counter %d", c.Terminal.Load())
	}
}

func TestHTTPStatusClassification(t *testing.T) {
	terminal := []int{400, 401, 403, 404, 405, 409, 413, 422}
	retryable := []int{408, 429, 500, 502, 503, 504}
	for _, s := range terminal {
		if !IsTerminal(&HTTPError{Status: s}) {
			t.Errorf("status %d: want terminal", s)
		}
	}
	for _, s := range retryable {
		if IsTerminal(&HTTPError{Status: s}) {
			t.Errorf("status %d: want retryable", s)
		}
	}
	// Wrapped errors classify the same way.
	err := fmt.Errorf("push: %w", &HTTPError{Status: 401})
	if !IsTerminal(err) {
		t.Error("wrapped 401: want terminal")
	}
}

// TestRetryAfterHonoredAndCapped: a 429's Retry-After becomes the next
// delay; a hostile value is capped at MaxDelay.
func TestRetryAfterHonoredAndCapped(t *testing.T) {
	var sleeps []time.Duration
	p := Policy{MaxAttempts: 3, BaseDelay: time.Millisecond,
		MaxDelay: 50 * time.Millisecond, Sleep: collectSleeps(&sleeps)}
	p.Do(context.Background(), func() error {
		return &HTTPError{Status: 429, RetryAfter: 30 * time.Millisecond}
	})
	if len(sleeps) != 2 || sleeps[0] != 30*time.Millisecond {
		t.Fatalf("Retry-After not honored: %v", sleeps)
	}
	sleeps = nil
	p.Do(context.Background(), func() error {
		return &HTTPError{Status: 429, RetryAfter: time.Hour}
	})
	if len(sleeps) != 2 || sleeps[0] != 50*time.Millisecond {
		t.Fatalf("Retry-After not capped: %v", sleeps)
	}
}

func TestNewHTTPErrorParsesRetryAfter(t *testing.T) {
	resp := &http.Response{StatusCode: 429, Header: http.Header{"Retry-After": {"2"}}}
	he := NewHTTPError(resp, "slow down")
	if he.RetryAfter != 2*time.Second || he.Status != 429 {
		t.Fatalf("parsed %+v", he)
	}
	resp = &http.Response{StatusCode: 503, Header: http.Header{}}
	if he := NewHTTPError(resp, ""); he.RetryAfter != 0 {
		t.Fatalf("absent header parsed as %v", he.RetryAfter)
	}
}

func TestContextCancelCutsWait(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var c Counters
	p := Policy{MaxAttempts: 4, BaseDelay: time.Hour, Counters: &c}
	calls := 0
	err := p.Do(ctx, func() error { calls++; return errors.New("x") })
	if calls != 1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("calls %d, err %v", calls, err)
	}
	if c.Exhausted.Load() != 1 {
		t.Errorf("exhausted counter %d", c.Exhausted.Load())
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clock := time.Unix(1000, 0)
	b := NewBreaker(3, time.Minute)
	b.SetClock(func() time.Time { return clock })

	fail := errors.New("down")
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.Report(fail)
	}
	if b.State() != Open {
		t.Fatalf("state after 3 failures: %v", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request inside cooldown")
	}

	// Cooldown elapses: exactly one probe is admitted.
	clock = clock.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("half-open probe refused")
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe fails: back to open for a full cooldown.
	b.Report(fail)
	if b.State() != Open || b.Allow() {
		t.Fatalf("failed probe did not re-open (state %v)", b.State())
	}

	// Next probe succeeds: closed, failure run reset.
	clock = clock.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Report(nil)
	if b.State() != Closed {
		t.Fatalf("state after successful probe: %v", b.State())
	}
	for i := 0; i < 2; i++ { // two failures stay under threshold 3
		b.Allow()
		b.Report(fail)
	}
	if b.State() != Closed {
		t.Fatal("failure run not reset by success")
	}

	c := b.Counts()
	if c.Opens != 2 || c.Probes != 2 || c.FastFails < 2 {
		t.Errorf("counts %+v", c)
	}
}

func TestBreakerConcurrent(t *testing.T) {
	b := NewBreaker(5, time.Millisecond)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				if b.Allow() {
					if (g+i)%3 == 0 {
						b.Report(errors.New("x"))
					} else {
						b.Report(nil)
					}
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	b.Counts() // must not race
}
