package experiments

import (
	"context"
	"fmt"
	"io"
	"reflect"

	"repro/internal/bench"
	"repro/internal/fsx"
	"repro/internal/harness"
	"repro/internal/store"
	"repro/internal/sweep"
)

// Runner configures RunSpecs; every field may be left zero.
type Runner struct {
	// Jobs is the worker-pool size (sweep.Each; 0 means GOMAXPROCS). With
	// one spec or Jobs 1 every run executes on the caller's goroutine.
	Jobs int
	// Ctx, when non-nil, cancels dispatch: no run starts once it is done,
	// and in-flight runs drain and are stored.
	Ctx context.Context
	// Store, when non-nil, serves every spec it holds a record for and
	// keeps every run executed here.
	Store *store.Records
	// Progress, when non-nil, gets a line per run and a summary.
	Progress *sweep.Tracker
	// OnStored, when set, gets the number of specs found in Store before
	// any run starts.
	OnStored func(n int)
	// Exec executes one run; nil means harness.Run.
	Exec func(harness.Spec) *harness.Outcome
}

// RunSpecs is the one store-backed run path, shared by sweeps, hetsimd's
// /v1/run and cmd/hetsim: look every spec's run key up, execute the
// misses on the pool, store each executed run. Outcomes come back in spec
// order, identical for every worker count and whether a run was simulated
// or reused; a nil outcome is a spec Ctx kept from being dispatched.
func RunSpecs(specs []harness.Spec, o Runner) []*harness.Outcome {
	exec := o.Exec
	if exec == nil {
		exec = harness.Run
	}
	outs := make([]*harness.Outcome, len(specs))
	keys := make([]string, len(specs))
	stored := 0
	if o.Store != nil {
		for i := range specs {
			keys[i] = store.RunKey(specs[i])
			if outs[i] = o.Store.Get(keys[i]); outs[i] != nil {
				stored++
			}
		}
	}
	if o.OnStored != nil {
		o.OnStored(stored)
	}
	name := func(spec harness.Spec) string {
		if o.Progress == nil {
			return ""
		}
		return runName(spec)
	}
	o.Progress.SetTotal(len(specs))
	for i, out := range outs {
		if out != nil {
			o.Progress.Replay(name(specs[i]))
		}
	}

	sweep.Each(o.Ctx, o.Jobs, len(specs), func(i int) {
		if outs[i] != nil {
			return // reused from the store
		}
		spec, run := specs[i], name(specs[i])
		if o.Progress != nil {
			spec.OnRetry = func(next bench.Size, err *harness.RunError) {
				o.Progress.Retry(run, fmt.Sprintf("%s at %s, degrading to %s", err.Kind, err.Size, next))
			}
		}
		o.Progress.Start(run)
		out := exec(spec)
		o.Store.Put(keys[i], out)
		if out.Err != nil {
			o.Progress.Finish(run, false, out.Err.Kind.String()+": "+out.Err.Msg)
		} else {
			o.Progress.Finish(run, true, fmt.Sprintf("%.3f ms sim, %d events", out.SimTime.Millis(), out.Events))
		}
		outs[i] = out
	})
	o.Progress.Summary()
	return outs
}

// runName names a run for progress lines and events: its benchmark and
// mode, then every machine field that differs from the mode's stock
// machine (an ablation's knob, an injected fault), so runs that simulate
// different machines read differently.
func runName(spec harness.Spec) string {
	n := spec.Bench.Info().FullName() + " " + spec.Mode.String()
	var diff func(path string, stock, got reflect.Value)
	diff = func(path string, stock, got reflect.Value) {
		if stock.Kind() == reflect.Struct {
			for i := 0; i < stock.NumField(); i++ {
				diff(path+stock.Type().Field(i).Name+".", stock.Field(i), got.Field(i))
			}
		} else if !stock.Equal(got) {
			n += fmt.Sprintf(" %s=%v", path[:len(path)-1], got)
		}
	}
	diff("", reflect.ValueOf(bench.ConfigFor(spec.Mode)), reflect.ValueOf(spec.Config()))
	return n
}

// StateRunner is the Runner a command's -state DIR sets up: Store is the
// run store at dir, and the store's notices and OnStored's reuse count go
// to w. An empty dir returns the zero Runner.
func StateRunner(dir string, w io.Writer) (Runner, error) {
	if dir == "" {
		return Runner{}, nil
	}
	st, err := store.Open(fsx.OS, dir, func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) })
	if err != nil {
		return Runner{}, err
	}
	return Runner{Store: st.Records(), OnStored: func(n int) {
		if n > 0 {
			fmt.Fprintf(w, "reusing %d stored runs from %s\n", n, dir)
		}
	}}, nil
}
