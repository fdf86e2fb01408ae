package chi

import (
	"testing"

	"chipletnoc/internal/sim"
)

func TestRetrierDisabled(t *testing.T) {
	r := NewRetrier(RetryConfig{})
	if r.Enabled() {
		t.Fatal("zero config produced an enabled retrier")
	}
	// All methods must be safe on the nil retrier.
	r.Arm(1, 0)
	if r.Disarm(1) {
		t.Fatal("nil retrier reports a re-sent transaction")
	}
	if retry, abort := r.Expired(1000); retry != nil || abort != nil {
		t.Fatal("nil retrier returned expirations")
	}
	if r.Armed() != 0 {
		t.Fatal("nil retrier reports armed transactions")
	}
}

func TestRetrierBackoffAndAbort(t *testing.T) {
	r := NewRetrier(RetryConfig{TimeoutCycles: 100, MaxRetries: 2})
	r.Arm(7, 0) // deadline 100

	if retry, abort := r.Expired(99); len(retry)+len(abort) != 0 {
		t.Fatal("expired before deadline")
	}
	// First timeout: retry, re-armed at 100<<1 = 200 past now.
	retry, abort := r.Expired(100)
	if len(retry) != 1 || retry[0] != 7 || len(abort) != 0 {
		t.Fatalf("first expiry: retry=%v abort=%v", retry, abort)
	}
	if retry, _ := r.Expired(299); len(retry) != 0 {
		t.Fatal("re-armed deadline fired early")
	}
	// Second timeout at 100+200=300: last retry (backoff 100<<2 = 400).
	retry, abort = r.Expired(300)
	if len(retry) != 1 || len(abort) != 0 {
		t.Fatalf("second expiry: retry=%v abort=%v", retry, abort)
	}
	// Third timeout at 300+400=700: budget exhausted, abort.
	retry, abort = r.Expired(700)
	if len(retry) != 0 || len(abort) != 1 || abort[0] != 7 {
		t.Fatalf("third expiry: retry=%v abort=%v", retry, abort)
	}
	if r.RetriedTxns != 2 || r.AbortedTxns != 1 {
		t.Fatalf("counters: retried=%d aborted=%d", r.RetriedTxns, r.AbortedTxns)
	}
	if r.Armed() != 0 {
		t.Fatal("aborted transaction still armed")
	}
}

func TestRetrierDisarmStopsClock(t *testing.T) {
	r := NewRetrier(RetryConfig{TimeoutCycles: 50, MaxRetries: 1})
	r.Arm(1, 0)
	r.Arm(2, 0)
	if r.Disarm(1) {
		t.Fatal("Disarm says a transaction never re-issued was re-sent")
	}
	retry, abort := r.Expired(sim.Cycle(1000))
	if len(retry) != 1 || retry[0] != 2 || len(abort) != 0 {
		t.Fatalf("disarmed txn fired: retry=%v abort=%v", retry, abort)
	}
	if !r.Disarm(2) {
		t.Fatal("Disarm says a re-issued transaction was never re-sent")
	}
}

func TestRetrierDeterministicOrder(t *testing.T) {
	r := NewRetrier(RetryConfig{TimeoutCycles: 10, MaxRetries: 5})
	for id := uint32(1); id <= 8; id++ {
		r.Arm(id, 0)
	}
	retry, _ := r.Expired(10)
	for i, id := range retry {
		if id != uint32(i+1) {
			t.Fatalf("expiry order not arm order: %v", retry)
		}
	}
}
