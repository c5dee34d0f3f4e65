package harness

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/device"
)

// TestRunCanceledBeforeStart: a spec whose context is already canceled
// fails immediately as KindCanceled without building a system.
func TestRunCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := Run(Spec{
		Bench: fakeBench{name: "never", run: func(s *device.System, _ bench.Mode, _ bench.Size) {
			t.Error("canceled run must not execute")
		}},
		Mode: bench.ModeCopy, Size: bench.SizeSmall,
		Ctx: ctx,
	})
	if out.Err == nil || out.Err.Kind != KindCanceled {
		t.Fatalf("outcome = %+v, want KindCanceled", out.Err)
	}
	if out.Sys != nil {
		t.Fatal("canceled-before-start run built a system")
	}
	if out.Attempts != 1 {
		t.Fatalf("canceled run retried: %d attempts", out.Attempts)
	}
}

// TestRunCanceledMidRun: cancellation lands inside the engine's event
// loop (through the periodic check) and comes back as KindCanceled with
// the trace tail, like every other abort. Cancellation also suppresses
// the retry a budget failure would normally get.
func TestRunCanceledMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	out := Run(Spec{
		Bench: fakeBench{name: "canceled", run: func(s *device.System, _ bench.Mode, _ bench.Size) {
			s.BeginROI()
			// Cancel from inside the run, then keep burning events well
			// past the engine's next periodic check. EndROI drains the
			// engine, which is where the interrupt lands.
			s.Eng.Schedule(1, cancel)
			burnEvents(s, 50000)
			s.EndROI()
		}},
		Mode: bench.ModeCopy, Size: bench.SizeMedium, // medium: a retry size exists
		Ctx: ctx,
	})
	if out.Err == nil || out.Err.Kind != KindCanceled {
		t.Fatalf("outcome = %+v, want KindCanceled", out.Err)
	}
	if out.Err.Kind.String() != "canceled" {
		t.Fatalf("kind string = %q", out.Err.Kind)
	}
	if out.Attempts != 1 {
		t.Fatalf("canceled run must not retry: %d attempts", out.Attempts)
	}
	if len(out.Err.TraceTail) == 0 {
		t.Fatal("canceled run carries no trace tail")
	}
	if out.Err.Events == 0 {
		t.Fatal("canceled run reports zero events")
	}
}

// TestRunStalled: a livelocked worklist — events churning forever at one
// simulated tick — is killed by the stall watchdog as KindStalled instead
// of hanging the sweep worker.
func TestRunStalled(t *testing.T) {
	out := Run(Spec{
		Bench: fakeBench{name: "livelock", run: func(s *device.System, _ bench.Mode, _ bench.Size) {
			s.BeginROI()
			var tick func()
			tick = func() { s.Eng.Schedule(0, tick) } // same-tick forever
			s.Eng.Schedule(1, tick)
			s.Eng.Run()
		}},
		Mode: bench.ModeCopy, Size: bench.SizeSmall,
		Stall: 100 * time.Millisecond,
	})
	if out.Err == nil || out.Err.Kind != KindStalled {
		t.Fatalf("outcome = %+v, want KindStalled", out.Err)
	}
	if !strings.Contains(out.Err.Msg, "frozen") {
		t.Fatalf("stall message: %s", out.Err.Msg)
	}
	if len(out.Err.TraceTail) == 0 {
		t.Fatal("stalled run carries no trace tail")
	}
	if out.Attempts != 1 {
		t.Fatalf("stalled run must not retry: %d attempts", out.Attempts)
	}
}

// TestRunStallWatchdogSparesHealthyRuns: a run that keeps advancing
// simulated time must never trip the watchdog, however slow the window.
func TestRunStallWatchdogSparesHealthyRuns(t *testing.T) {
	out := Run(Spec{
		Bench: fakeBench{name: "healthy", run: okRun(20000)},
		Mode:  bench.ModeLimitedCopy, Size: bench.SizeSmall,
		Stall: 25 * time.Millisecond,
	})
	if out.Err != nil {
		t.Fatalf("healthy run killed: %v", out.Err)
	}
}

// TestRunWallDurations: every outcome carries its total wall cost, and
// each failed attempt carries its own.
func TestRunWallDurations(t *testing.T) {
	out := Run(Spec{
		Bench: fakeBench{name: "ok", run: okRun(100)},
		Mode:  bench.ModeLimitedCopy, Size: bench.SizeSmall,
	})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Wall <= 0 {
		t.Fatalf("success wall = %v, want > 0", out.Wall)
	}

	// A budget failure that retries: two attempts, each with its own wall
	// duration, summing (with the rest of the loop) into Outcome.Wall.
	out = Run(Spec{
		Bench: fakeBench{name: "slow", run: okRun(100000)},
		Mode:  bench.ModeLimitedCopy, Size: bench.SizeMedium,
		Budget: Budget{MaxEvents: 1000},
	})
	if out.Err == nil || out.Attempts != 2 {
		t.Fatalf("rigged budget run: err=%v attempts=%d", out.Err, out.Attempts)
	}
	if len(out.AttemptErrors) != 2 {
		t.Fatalf("attempt errors = %d, want 2", len(out.AttemptErrors))
	}
	var sum time.Duration
	for i, ae := range out.AttemptErrors {
		if ae.Wall <= 0 {
			t.Fatalf("attempt %d wall = %v, want > 0", i+1, ae.Wall)
		}
		sum += ae.Wall
	}
	if out.Wall < sum {
		t.Fatalf("outcome wall %v < sum of attempt walls %v", out.Wall, sum)
	}
	if out.Err.Wall != out.AttemptErrors[1].Wall {
		t.Fatal("final error's wall differs from its attempt record")
	}
	// And the JSON forms surface it.
	if js := out.JSON(); js.WallMs <= 0 || js.Error.WallMs <= 0 {
		t.Fatalf("wall_ms missing from JSON: %+v", js)
	}
}

// TestOutcomeRecordRoundTrip is the byte-identity foundation of resume:
// an Outcome pushed through its run record (its JSON form) and back must
// render the same report text and the same JSON document as the original.
func TestOutcomeRecordRoundTrip(t *testing.T) {
	check := func(t *testing.T, out *Outcome) {
		t.Helper()
		data, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		back := &Outcome{}
		if err := json.Unmarshal(data, back); err != nil {
			t.Fatal(err)
		}
		if back.Sys != nil {
			t.Fatal("replayed outcome must not carry a live system")
		}
		if (out.Report == nil) != (back.Report == nil) {
			t.Fatal("report presence changed")
		}
		if out.Report != nil && out.Report.String() != back.Report.String() {
			t.Fatalf("rendered report changed across the round trip:\n--- original\n%s\n--- replayed\n%s",
				out.Report.String(), back.Report.String())
		}
		aj, _ := json.Marshal(out.JSON())
		bj, _ := json.Marshal(back.JSON())
		if string(aj) != string(bj) {
			t.Fatalf("outcome JSON changed across the round trip:\n%s\nvs\n%s", aj, bj)
		}
		// Re-recording must be byte-stable too (record idempotence).
		data2, _ := json.Marshal(back)
		if string(data) != string(data2) {
			t.Fatal("record is not byte-stable across a round trip")
		}
	}

	t.Run("success", func(t *testing.T) {
		out := Run(Spec{
			Bench: fakeBench{name: "ok", run: okRun(5000)},
			Mode:  bench.ModeLimitedCopy, Size: bench.SizeSmall,
		})
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		check(t, out)
	})
	t.Run("failure", func(t *testing.T) {
		out := Run(Spec{
			Bench: fakeBench{name: "slow", run: okRun(100000)},
			Mode:  bench.ModeCopy, Size: bench.SizeMedium,
			Budget: Budget{MaxEvents: 1000},
		})
		if out.Err == nil {
			t.Fatal("rigged run succeeded")
		}
		check(t, out)
	})
}

// TestRunRecordGolden pins the run-record format: bodies written by
// an earlier build (one success, one degraded failure with its trace
// tails) must still decode into an Outcome and re-encode to the same
// bytes, so state dirs written before a refactor of Outcome stay
// readable.
func TestRunRecordGolden(t *testing.T) {
	for name, body := range map[string]string{
		"success": `{"report":{"Benchmark":"fake/ok","System":"hetero-processor","Mode":"limited-copy","ROI":5001,"Breakdown":{"Start":0,"End":5001,"BySet":{"0":5001}},"CPUActive":0,"GPUActive":0,"CopyActive":0,"CPUUtil":0,"GPUUtil":0,"Cserial":0,"Rco":0,"Rmc":0,"OppCost":1,"FootprintBytes":0,"Footprint":{},"DRAMAccesses":[0,0,0],"ClassCounts":[0,0,0,0,0,0],"BWLimitedFrac":0,"FLOPs":[0,0,0],"Stages":0,"Phases":null},"attempts":1,"size":0,"sim_time":5001,"events":5001,"wall":411417}`,
		"failure": `{"err":{"Benchmark":"fake/slow","Mode":0,"Size":0,"Kind":1,"Msg":"sim: event budget exceeded (1000 events, limit 1000) at sim time 0.000 ms","SimTime":1000,"Events":1000,"Stack":null,"Attempt":2,"Wall":163743,"TraceTail":[{"Name":"attempt 2 start (small)","Cat":"harness","Track":"harness","Comp":0,"Kind":1,"Start":0,"End":0,"Activity":false,"Args":null,"Seq":1},{"Name":"run failed: budget-exceeded","Cat":"harness","Track":"harness","Comp":0,"Kind":1,"Start":1000,"End":1000,"Activity":false,"Args":null,"Seq":2}]},"attempts":2,"size":0,"degraded":true,"sim_time":1000,"events":1000,"wall":511781,"attempt_errors":[{"Benchmark":"fake/slow","Mode":0,"Size":1,"Kind":1,"Msg":"sim: event budget exceeded (1000 events, limit 1000) at sim time 0.000 ms","SimTime":1000,"Events":1000,"Stack":null,"Attempt":1,"Wall":348038,"TraceTail":[{"Name":"attempt 1 start (medium)","Cat":"harness","Track":"harness","Comp":0,"Kind":1,"Start":0,"End":0,"Activity":false,"Args":null,"Seq":1},{"Name":"run failed: budget-exceeded","Cat":"harness","Track":"harness","Comp":0,"Kind":1,"Start":1000,"End":1000,"Activity":false,"Args":null,"Seq":2}]},{"Benchmark":"fake/slow","Mode":0,"Size":0,"Kind":1,"Msg":"sim: event budget exceeded (1000 events, limit 1000) at sim time 0.000 ms","SimTime":1000,"Events":1000,"Stack":null,"Attempt":2,"Wall":163743,"TraceTail":[{"Name":"attempt 2 start (small)","Cat":"harness","Track":"harness","Comp":0,"Kind":1,"Start":0,"End":0,"Activity":false,"Args":null,"Seq":1},{"Name":"run failed: budget-exceeded","Cat":"harness","Track":"harness","Comp":0,"Kind":1,"Start":1000,"End":1000,"Activity":false,"Args":null,"Seq":2}]}]}`,
	} {
		t.Run(name, func(t *testing.T) {
			out := &Outcome{}
			if err := json.Unmarshal([]byte(body), out); err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != body {
				t.Fatalf("record re-encodes differently:\n got %s\nwant %s", got, body)
			}
		})
	}
}
