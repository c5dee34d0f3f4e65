package sweep

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestTrackerConcurrentEventOrdering hammers one Tracker from many
// goroutines, each driving a distinct run through its lifecycle, and
// checks the invariants the hetsimd progress stream relies on: events
// arrive serialized (the sink needs no locking), the finished counter is
// monotone across the stream, each run gets exactly one terminal event
// (done, failed, or replay), a run's events arrive in lifecycle order,
// and every event carries the sweep's correlation ID.
func TestTrackerConcurrentEventOrdering(t *testing.T) {
	const runs = 64
	var events []Event
	p := NewEventTracker(func(e Event) { events = append(events, e) })
	p.SetTotal(runs)
	p.SetRequestID("trk-1")

	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("bench-%03d", i)
			if i%3 == 0 {
				p.Replay(name)
				return
			}
			p.Start(name)
			if i%2 == 0 {
				p.Retry(name, "budget-exceeded at small")
			}
			p.Finish(name, i%5 != 0, "detail")
		}(i)
	}
	wg.Wait()
	p.Summary()

	if len(events) == 0 {
		t.Fatal("sink saw no events")
	}
	last := events[len(events)-1]
	if last.Kind != "summary" || last.Finished != runs {
		t.Fatalf("last event = %+v, want summary with finished=%d", last, runs)
	}
	if !strings.Contains(last.Detail, fmt.Sprintf("%d runs", runs)) {
		t.Fatalf("summary detail = %q, want the %d-run tally", last.Detail, runs)
	}

	finished := 0
	terminals := map[string]int{}
	phase := map[string]int{} // 0 none, 1 started, 2 terminal
	for i, e := range events {
		if e.RequestID != "trk-1" {
			t.Fatalf("event %d missing request ID: %+v", i, e)
		}
		if e.Finished < finished {
			t.Fatalf("event %d: finished counter went backward (%d -> %d)", i, finished, e.Finished)
		}
		finished = e.Finished
		if e.Total != runs {
			t.Fatalf("event %d: total = %d, want %d", i, e.Total, runs)
		}
		switch e.Kind {
		case "start":
			if phase[e.Name] != 0 {
				t.Fatalf("event %d: %s started twice (or after its terminal)", i, e.Name)
			}
			phase[e.Name] = 1
		case "retry":
			if phase[e.Name] != 1 {
				t.Fatalf("event %d: %s retried outside start..terminal", i, e.Name)
			}
		case "done", "failed":
			if phase[e.Name] != 1 {
				t.Fatalf("event %d: %s finished without starting", i, e.Name)
			}
			phase[e.Name] = 2
			terminals[e.Name]++
		case "replay":
			if phase[e.Name] != 0 {
				t.Fatalf("event %d: %s replayed after other events", i, e.Name)
			}
			phase[e.Name] = 2
			terminals[e.Name]++
		case "summary":
			if i != len(events)-1 {
				t.Fatalf("event %d: summary before the end", i)
			}
		default:
			t.Fatalf("event %d: unknown kind %q", i, e.Kind)
		}
	}
	if len(terminals) != runs {
		t.Fatalf("terminal events cover %d runs, want %d", len(terminals), runs)
	}
	for name, n := range terminals {
		if n != 1 {
			t.Fatalf("%s got %d terminal events, want exactly 1", name, n)
		}
	}
	if finished != runs {
		t.Fatalf("final finished counter = %d, want %d", finished, runs)
	}
}

// TestTrackerNilSafety: every method on a nil Tracker is a no-op, so
// un-instrumented sweeps need no branching at call sites.
func TestTrackerNilSafety(t *testing.T) {
	var p *Tracker
	p.SetTotal(3)
	p.SetRequestID("x")
	p.Start("a")
	p.Retry("a", "why")
	p.Finish("a", true, "")
	p.Replay("b")
	p.Summary()
}
