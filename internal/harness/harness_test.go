package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/device"
)

// fakeBench is a scriptable benchmark for exercising the harness without
// dragging a real suite (and its run time) into these tests.
type fakeBench struct {
	name string
	run  func(s *device.System, mode bench.Mode, size bench.Size)
}

func (f fakeBench) Info() bench.Info {
	return bench.Info{Suite: "fake", Name: f.name, Desc: "harness test workload"}
}

func (f fakeBench) Run(s *device.System, mode bench.Mode, size bench.Size) {
	f.run(s, mode, size)
}

// burnEvents schedules a chain of n engine events 1ps apart.
func burnEvents(s *device.System, n int) {
	left := n
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			s.Eng.Schedule(1, tick)
		}
	}
	s.Eng.Schedule(1, tick)
}

// okRun is a minimal well-behaved benchmark body: a short event chain
// inside an ROI.
func okRun(events int) func(*device.System, bench.Mode, bench.Size) {
	return func(s *device.System, _ bench.Mode, _ bench.Size) {
		s.BeginROI()
		burnEvents(s, events)
		s.EndROI()
	}
}

func TestRunSuccess(t *testing.T) {
	out := Run(Spec{
		Bench: fakeBench{name: "ok", run: okRun(100)},
		Mode:  bench.ModeLimitedCopy, Size: bench.SizeSmall,
	})
	if out.Err != nil {
		t.Fatalf("unexpected error: %v", out.Err)
	}
	if out.Report == nil || out.Report.Benchmark != "fake/ok" {
		t.Fatalf("report = %+v", out.Report)
	}
	if out.Attempts != 1 || out.Degraded {
		t.Fatalf("attempts=%d degraded=%v", out.Attempts, out.Degraded)
	}
	if out.Events == 0 || out.SimTime == 0 {
		t.Fatalf("run telemetry empty: %d events, %v sim", out.Events, out.SimTime)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	out := Run(Spec{
		Bench: fakeBench{name: "boom", run: func(s *device.System, _ bench.Mode, _ bench.Size) {
			s.BeginROI()
			panic("kernel table corrupted")
		}},
		Mode: bench.ModeCopy, Size: bench.SizeSmall,
	})
	if out.Err == nil || out.Err.Kind != KindPanic {
		t.Fatalf("outcome = %+v", out.Err)
	}
	if !strings.Contains(out.Err.Msg, "kernel table corrupted") {
		t.Fatalf("msg = %q", out.Err.Msg)
	}
	if len(out.Err.Stack) == 0 {
		t.Fatal("panic RunError must carry a stack")
	}
	if !strings.Contains(out.Err.Error(), "fake/boom") {
		t.Fatalf("error line: %v", out.Err)
	}
}

// TestRunDeadlock builds un-completable Handle waits in several shapes and
// asserts each comes back as a deadlock RunError naming the wedged stage
// instead of a process-killing panic.
func TestRunDeadlock(t *testing.T) {
	cases := []struct {
		name      string
		wantStage string
		run       func(s *device.System, mode bench.Mode, size bench.Size)
	}{
		{
			name: "bare-handle", wantStage: "upload weights",
			run: func(s *device.System, _ bench.Mode, _ bench.Size) {
				s.BeginROI()
				s.Wait(s.NewHandle("upload weights"))
			},
		},
		{
			name: "barrier-on-stuck-dep", wantStage: "barrier",
			run: func(s *device.System, _ bench.Mode, _ bench.Size) {
				s.BeginROI()
				stuck := s.NewHandle("producer signal")
				done := s.CPUTaskAsync(device.CPUTaskSpec{
					Name: "consume", Func: func(c *device.CPUThread) { c.FLOP(1) },
				}, stuck)
				_ = done
				s.Wait(s.AfterAll(stuck))
			},
		},
		{
			name: "kernel-behind-stuck-dep", wantStage: "kernel drain",
			run: func(s *device.System, _ bench.Mode, _ bench.Size) {
				s.BeginROI()
				stuck := s.NewHandle("dma complete")
				h := s.LaunchAsync(device.KernelSpec{
					Name: "drain", Grid: 1, Block: 32,
					Func: func(t *device.Thread) { t.FLOP(1) },
				}, stuck)
				s.Wait(h)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := Run(Spec{
				Bench: fakeBench{name: tc.name, run: tc.run},
				Mode:  bench.ModeLimitedCopy, Size: bench.SizeSmall,
			})
			if out.Err == nil || out.Err.Kind != KindDeadlock {
				t.Fatalf("outcome = %+v", out.Err)
			}
			if !strings.Contains(out.Err.Msg, tc.wantStage) {
				t.Fatalf("deadlock error does not name stage %q: %q", tc.wantStage, out.Err.Msg)
			}
			if out.Attempts != 1 {
				t.Fatalf("deadlocks must not retry: %d attempts", out.Attempts)
			}
		})
	}
}

// TestRunEventBudget pins the acceptance case: a runaway run terminates
// with a diagnostic RunError, never a hang or crash.
func TestRunEventBudget(t *testing.T) {
	out := Run(Spec{
		Bench: fakeBench{name: "runaway", run: func(s *device.System, _ bench.Mode, _ bench.Size) {
			s.BeginROI()
			var tick func()
			tick = func() { s.Eng.Schedule(1, tick) } // never terminates
			s.Eng.Schedule(1, tick)
			s.EndROI() // drains forever without a budget
		}},
		Mode: bench.ModeLimitedCopy, Size: bench.SizeSmall,
		Budget: Budget{MaxEvents: 5000},
	})
	if out.Err == nil || out.Err.Kind != KindBudget {
		t.Fatalf("outcome = %+v", out.Err)
	}
	if out.Err.Events < 5000 {
		t.Fatalf("events = %d, want >= budget", out.Err.Events)
	}
	if !strings.Contains(out.Err.Msg, "event budget exceeded") {
		t.Fatalf("msg = %q", out.Err.Msg)
	}
}

func TestRunWallClockBudget(t *testing.T) {
	out := Run(Spec{
		Bench: fakeBench{name: "hang", run: func(s *device.System, _ bench.Mode, _ bench.Size) {
			s.BeginROI()
			var tick func()
			tick = func() { s.Eng.Schedule(1, tick) }
			s.Eng.Schedule(1, tick)
			s.EndROI()
		}},
		Mode: bench.ModeLimitedCopy, Size: bench.SizeSmall,
		Budget: Budget{Timeout: 30 * time.Millisecond},
	})
	if out.Err == nil || out.Err.Kind != KindTimeout {
		t.Fatalf("outcome = %+v", out.Err)
	}
}

// TestRunRetryDegradesSize pins the retry policy: a budget-exceeded medium
// run is retried once at small and the substitution is reported.
func TestRunRetryDegradesSize(t *testing.T) {
	out := Run(Spec{
		Bench: fakeBench{name: "degrade", run: func(s *device.System, mode bench.Mode, size bench.Size) {
			n := 100
			if size == bench.SizeMedium {
				n = 100000
			}
			s.BeginROI()
			burnEvents(s, n)
			s.EndROI()
		}},
		Mode: bench.ModeLimitedCopy, Size: bench.SizeMedium,
		Budget: Budget{MaxEvents: 10000},
	})
	if out.Err != nil {
		t.Fatalf("degraded retry should have succeeded: %v", out.Err)
	}
	if !out.Degraded || out.Size != bench.SizeSmall || out.Attempts != 2 {
		t.Fatalf("degradation not recorded: %+v", out)
	}
	if out.Report == nil {
		t.Fatal("no report from degraded run")
	}
}

// TestRunAttemptErrors pins the per-attempt accounting: a degraded-size
// success still carries the RunError its first attempt hit, and an overall
// failure's AttemptErrors ends with the final error.
func TestRunAttemptErrors(t *testing.T) {
	out := Run(Spec{
		Bench: fakeBench{name: "degrade-acct", run: func(s *device.System, mode bench.Mode, size bench.Size) {
			n := 100
			if size == bench.SizeMedium {
				n = 100000
			}
			s.BeginROI()
			burnEvents(s, n)
			s.EndROI()
		}},
		Mode: bench.ModeLimitedCopy, Size: bench.SizeMedium,
		Budget: Budget{MaxEvents: 10000},
	})
	if out.Err != nil || !out.Degraded {
		t.Fatalf("degraded retry should have succeeded: %+v", out.Err)
	}
	if len(out.AttemptErrors) != 1 {
		t.Fatalf("AttemptErrors = %v", out.AttemptErrors)
	}
	first := &out.AttemptErrors[0]
	if first.Kind != KindBudget || first.Attempt != 1 || first.Size != bench.SizeMedium {
		t.Fatalf("first attempt error = %+v", first)
	}

	out = Run(Spec{
		Bench: fakeBench{name: "always-over", run: okRun(100000)},
		Mode:  bench.ModeLimitedCopy, Size: bench.SizeMedium,
		Budget: Budget{MaxEvents: 1000},
	})
	if out.Err == nil || len(out.AttemptErrors) != 2 {
		t.Fatalf("err=%v attempt errors=%v", out.Err, out.AttemptErrors)
	}
	if last := out.AttemptErrors[len(out.AttemptErrors)-1]; last.Error() != out.Err.Error() {
		t.Fatalf("last attempt error %v != final error %v", &last, out.Err)
	}
	if out.AttemptErrors[0].Size != bench.SizeMedium || out.AttemptErrors[1].Size != bench.SizeSmall {
		t.Fatalf("attempt sizes = %v", out.AttemptErrors)
	}
}

// TestRunRetryNoDefaultBackoff: the simulator is deterministic, so a retry
// never sleeps — a sleeping retry would idle a sweep worker for nothing.
// The failing medium attempt burns only 10k events, so anything near a
// backoff delay is a regression.
func TestRunRetryNoDefaultBackoff(t *testing.T) {
	start := time.Now()
	out := Run(Spec{
		Bench: fakeBench{name: "fast-retry", run: func(s *device.System, mode bench.Mode, size bench.Size) {
			n := 100
			if size == bench.SizeMedium {
				n = 100000
			}
			s.BeginROI()
			burnEvents(s, n)
			s.EndROI()
		}},
		Mode: bench.ModeLimitedCopy, Size: bench.SizeMedium,
		Budget: Budget{MaxEvents: 10000},
	})
	if out.Err != nil || out.Attempts != 2 {
		t.Fatalf("err=%v attempts=%d", out.Err, out.Attempts)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("zero-backoff retry took %v; is a default backoff sleeping?", elapsed)
	}
}

// TestRunNoRetryAtSmallest: small has nothing to degrade to, so a budget
// failure is final (the simulator is deterministic; same input, same
// exhaustion).
func TestRunNoRetryAtSmallest(t *testing.T) {
	out := Run(Spec{
		Bench: fakeBench{name: "small-runaway", run: func(s *device.System, _ bench.Mode, _ bench.Size) {
			s.BeginROI()
			burnEvents(s, 100000)
			s.EndROI()
		}},
		Mode: bench.ModeLimitedCopy, Size: bench.SizeSmall,
		Budget: Budget{MaxEvents: 1000},
	})
	if out.Err == nil || out.Err.Kind != KindBudget || out.Attempts != 1 {
		t.Fatalf("outcome = %+v (attempts %d)", out.Err, out.Attempts)
	}
}

// TestRunUsageErrors covers the converted device panics: each invalid
// input surfaces as a usage-kind RunError, not a crash.
func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name    string
		wantMsg string
		run     func(s *device.System, mode bench.Mode, size bench.Size)
	}{
		{
			name: "zero-grid", wantMsg: "positive grid and block",
			run: func(s *device.System, _ bench.Mode, _ bench.Size) {
				s.BeginROI()
				s.Launch(device.KernelSpec{Name: "bad", Grid: 0, Block: 32, Func: func(t *device.Thread) {}})
			},
		},
		{
			name: "oversized-block", wantMsg: "exceeds SM capacity",
			run: func(s *device.System, _ bench.Mode, _ bench.Size) {
				s.BeginROI()
				s.Launch(device.KernelSpec{Name: "wide", Grid: 1, Block: 1 << 20, Func: func(t *device.Thread) {}})
			},
		},
		{
			name: "copy-overrun", wantMsg: "overruns",
			run: func(s *device.System, _ bench.Mode, _ bench.Size) {
				s.BeginROI()
				big := device.AllocBuf[float32](s, 64, "big", device.Host)
				tiny := device.AllocBuf[float32](s, 64, "tiny", device.Host)
				tiny.A.Size = 16 // simulate an undersized destination range
				device.Memcpy(s, tiny, big)
			},
		},
		{
			name: "length-mismatch", wantMsg: "length mismatch",
			run: func(s *device.System, _ bench.Mode, _ bench.Size) {
				s.BeginROI()
				a := device.AllocBuf[float32](s, 64, "a", device.Host)
				b := device.AllocBuf[float32](s, 32, "b", device.Host)
				device.Memcpy(s, a, b)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := Run(Spec{
				Bench: fakeBench{name: tc.name, run: tc.run},
				Mode:  bench.ModeLimitedCopy, Size: bench.SizeSmall,
			})
			if out.Err == nil || out.Err.Kind != KindUsage {
				t.Fatalf("outcome = %+v", out.Err)
			}
			if !strings.Contains(out.Err.Msg, tc.wantMsg) {
				t.Fatalf("msg %q missing %q", out.Err.Msg, tc.wantMsg)
			}
		})
	}
}

func TestRunRejectsUnsupportedMode(t *testing.T) {
	out := Run(Spec{
		Bench: fakeBench{name: "nomode", run: okRun(10)},
		Mode:  bench.ModeAsyncStreams, Size: bench.SizeSmall,
	})
	if out.Err == nil || out.Err.Kind != KindUsage || !strings.Contains(out.Err.Msg, "does not support") {
		t.Fatalf("outcome = %+v", out.Err)
	}
}

// TestEngineBudgetArmedPerAttempt guards a subtle bug: the budget must be
// re-armed per attempt so a retry gets the full allowance, not the
// leftovers of the failed attempt.
func TestEngineBudgetArmedPerAttempt(t *testing.T) {
	attempts := 0
	out := Run(Spec{
		Bench: fakeBench{name: "per-attempt", run: func(s *device.System, mode bench.Mode, size bench.Size) {
			attempts++
			n := 900 // fits the 1000-event budget only if armed fresh
			if size == bench.SizeMedium {
				n = 100000
			}
			s.BeginROI()
			burnEvents(s, n)
			s.EndROI()
		}},
		Mode: bench.ModeLimitedCopy, Size: bench.SizeMedium,
		Budget: Budget{MaxEvents: 1000},
	})
	if out.Err != nil || attempts != 2 {
		t.Fatalf("err=%v attempts=%d", out.Err, attempts)
	}
}
