package sweep

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// SignalContexts installs the two-stage graceful-shutdown handler the
// sweep commands share. It returns two contexts derived from parent:
//
//   - dispatch is canceled by the first SIGINT/SIGTERM: the sweep stops
//     handing out new runs, drains the in-flight ones, stores them, and
//     writes a partial report.
//   - run is canceled by the second signal: in-flight runs are aborted
//     through their engines' periodic cancellation checks and come back
//     as canceled RunErrors (which the run store deliberately does not
//     record, so a resume re-runs them).
//
// A third signal restores the default OS disposition, so one more ^C
// kills a process wedged beyond the engine's reach. Progress messages go
// to w (the commands pass stderr; nil suppresses them). stop releases the
// handler and both contexts; call it once the sweep is done so later
// signals behave normally.
func SignalContexts(parent context.Context, w io.Writer) (dispatch, run context.Context, stop func()) {
	if parent == nil {
		parent = context.Background()
	}
	dispatchCtx, cancelDispatch := context.WithCancel(parent)
	runCtx, cancelRun := context.WithCancel(parent)
	ch := make(chan os.Signal, 3)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		n := 0
		for range ch {
			n++
			switch n {
			case 1:
				if w != nil {
					fmt.Fprintf(w, "\ninterrupt: draining in-flight runs and checkpointing; interrupt again to abort them\n")
				}
				cancelDispatch()
			case 2:
				if w != nil {
					fmt.Fprintf(w, "\ninterrupt: aborting in-flight runs; one more interrupt kills the process\n")
				}
				cancelRun()
			default:
				signal.Stop(ch)
				return
			}
		}
	}()
	return dispatchCtx, runCtx, func() {
		signal.Stop(ch)
		close(ch)
		cancelDispatch()
		cancelRun()
	}
}
