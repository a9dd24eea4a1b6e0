package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or a call runs.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(d time.Duration) {
	if d > c.t {
		c.t = d
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	window := 20 * time.Second
	a := poissonSchedule(rand.New(rand.NewSource(7)), 35, window, 96, 2)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 35, window, 96, 2)
	c := poissonSchedule(rand.New(rand.NewSource(8)), 35, window, 96, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same schedule")
	}
	// 700 expected arrivals; five standard deviations either way.
	if n := len(a); n < 700-5*27 || n > 700+5*27 {
		t.Errorf("%d arrivals in %v at 35/s, want about 700", n, window)
	}
	for i, x := range a {
		if x.due < 0 || x.due >= window || len(x.images) != 2 {
			t.Fatalf("arrival %d out of range: %+v", i, x)
		}
		for _, img := range x.images {
			if img < 0 || img >= 96 {
				t.Fatalf("arrival %d draws image %d of a 96-image pool", i, img)
			}
		}
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
	}
}

func TestWorkerSeedsDiffer(t *testing.T) {
	seen := make(map[int64]bool)
	for seed := int64(1); seed <= 20; seed++ {
		for _, phase := range []int{phaseWarmUp, phaseMeasure} {
			for w := 0; w < 2; w++ {
				s := workerSeed(seed, phase, w)
				if seen[s] {
					t.Fatalf("seed %d phase %d worker %d repeats generator seed %d", seed, phase, w, s)
				}
				seen[s] = true
			}
		}
	}
}

// A stalled request delays the ones queued behind it; their latency counts
// from when they were due, and the stall is not charged to the generator.
func TestOpenStreamChargesStallsFromDueTime(t *testing.T) {
	ms := time.Millisecond
	sched := []arrival{{due: 0}, {due: 10 * ms}, {due: 20 * ms}, {due: 30 * ms}, {due: 100 * ms}}
	clk := &fakeClock{}
	service := []time.Duration{45 * ms, ms, ms, ms, ms}
	i := 0
	out := openStream(clk, sched, func(arrival) error {
		clk.t += service[i]
		i++
		return nil
	})
	want := []struct{ latency, lag time.Duration }{
		{45 * ms, 0},  // sent on time, stalls
		{36 * ms, -1}, // due at 10, sent at 45 when the stall ends
		{27 * ms, -1}, // due at 20, sent at 46
		{18 * ms, -1}, // due at 30, sent at 47
		{1 * ms, 0},   // the stream is idle again by 100
	}
	for k, w := range want {
		if got := out[k].latency(); got != w.latency {
			t.Errorf("request %d latency %v, want %v", k, got, w.latency)
		}
		if out[k].lag != w.lag {
			t.Errorf("request %d lag %v, want %v", k, out[k].lag, w.lag)
		}
	}
}

func TestOpenStreamRecordsWakeUpLag(t *testing.T) {
	ms := time.Millisecond
	clk := &lateClock{late: 2 * ms}
	out := openStream(clk, []arrival{{due: 10 * ms}}, func(arrival) error { return nil })
	if out[0].lag != 2*ms || out[0].latency() != 2*ms {
		t.Errorf("lag %v latency %v, want 2ms each", out[0].lag, out[0].latency())
	}
}

// lateClock wakes every sleeper late by a fixed amount.
type lateClock struct{ t, late time.Duration }

func (c *lateClock) now() time.Duration { return c.t }

func (c *lateClock) sleepUntil(d time.Duration) {
	if d > c.t {
		c.t = d + c.late
	}
}

func TestClosedLoopStopsAtWindow(t *testing.T) {
	clk := &fakeClock{}
	out := closedLoop(clk, 100*time.Millisecond, func() error {
		clk.t += 30 * time.Millisecond
		return nil
	})
	if len(out) != 4 {
		t.Fatalf("%d requests, want 4 (sent at 0, 30, 60 and 90 ms)", len(out))
	}
	for _, o := range out {
		if o.latency() != 30*time.Millisecond || o.lag != -1 {
			t.Errorf("outcome %+v, want 30ms latency and no lag", o)
		}
	}
}
