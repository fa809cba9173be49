package obs

import (
	"testing"
	"time"
)

// Now must be monotonic: span starts and ends are compared across calls, so
// a wall-clock step (NTP, suspend) must never make a later reading smaller.
// Basing Now on time.Since(processEpoch) keeps it on Go's monotonic clock;
// this test pins that property.
func TestNowMonotonic(t *testing.T) {
	prev := Now()
	if prev < 0 {
		t.Fatalf("Now() = %d before first sample, want >= 0", prev)
	}
	for i := 0; i < 100_000; i++ {
		v := Now()
		if v < prev {
			t.Fatalf("Now went backwards at sample %d: %d -> %d", i, prev, v)
		}
		prev = v
	}
}

func TestNowAdvancesWithRealTime(t *testing.T) {
	const sleep = 10 * time.Millisecond
	t0 := Now()
	time.Sleep(sleep)
	d := time.Duration(Now() - t0)
	if d < sleep {
		t.Fatalf("Now advanced %v across a %v sleep", d, sleep)
	}
	if d > sleep+2*time.Second {
		t.Fatalf("Now advanced %v across a %v sleep (wrong timebase?)", d, sleep)
	}
}
