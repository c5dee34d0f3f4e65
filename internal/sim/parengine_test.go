package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

// TestPipelineOrder checks the core determinism contract: results come back
// in submission order for every worker count, with gen running strictly
// sequentially (gen(i) sees every earlier gen's effects).
func TestPipelineOrder(t *testing.T) {
	for _, par := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			p := NewParEngine(par, 4, Nanosecond)
			defer p.Release()
			const n = 200
			genSeen := 0
			st := p.Pipeline(n, func(i int) any {
				if genSeen != i {
					// Runs on the single gen worker, so no lock needed;
					// the failure value ships through the result.
					return -1
				}
				genSeen++
				return i * 10
			})
			for i := 0; i < n; i++ {
				if got := st.Next().(int); got != i*10 {
					t.Fatalf("job %d: got %d, want %d", i, got, i*10)
				}
			}
		})
	}
}

// TestPipelineNilPre checks gen results arrive unchanged at par=4, which
// runs the same single gen worker as par=2.
func TestPipelineNilPre(t *testing.T) {
	p := NewParEngine(4, 8, Nanosecond)
	defer p.Release()
	st := p.Pipeline(10, func(i int) any { return i })
	for i := 0; i < 10; i++ {
		if got := st.Next().(int); got != i {
			t.Fatalf("job %d: got %d", i, got)
		}
	}
}

// TestPipelinePanicShips checks a panicking job re-panics on the consumer
// with the original value, and that no later job of the pipeline runs.
func TestPipelinePanicShips(t *testing.T) {
	t.Run("gen", func(t *testing.T) {
		p := NewParEngine(3, 4, Nanosecond)
		defer p.Release()
		boom := fmt.Errorf("boom")
		ran := make(chan int, 16)
		st := p.Pipeline(10, func(i int) any {
			if i == 2 {
				panic(boom)
			}
			ran <- i
			return i
		})
		for i := 0; i < 2; i++ {
			if got := st.Next().(int); got != i {
				t.Fatalf("job %d: got %d", i, got)
			}
		}
		func() {
			defer func() {
				if r := recover(); r != boom {
					t.Fatalf("recovered %v, want the original panic value", r)
				}
			}()
			st.Next()
			t.Fatal("Next returned instead of panicking")
		}()
		p.Release()
		close(ran)
		for i := range ran {
			if i > 2 {
				t.Fatalf("gen %d ran after the poisoning panic", i)
			}
		}
	})
}

// TestReleaseUnblocksProducer checks Release frees a pump blocked on a full
// flow-control window whose consumer never arrives — the abandoned-run path
// (budget trip, interrupt) must not leak or deadlock workers.
func TestReleaseUnblocksProducer(t *testing.T) {
	p := NewParEngine(4, 2, Nanosecond)
	p.Pipeline(100, func(i int) any { return i }) // never consumed
	done := make(chan struct{})
	go func() {
		p.Release()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Release did not unblock the pipeline producer")
	}
	p.Release() // idempotent
}

// TestSerialParEngineNil checks par<2 yields no engine (the serial path).
func TestSerialParEngineNil(t *testing.T) {
	for _, par := range []int{-1, 0, 1} {
		if p := NewParEngine(par, 8, Nanosecond); p != nil {
			t.Fatalf("NewParEngine(%d) = %v, want nil", par, p)
		}
	}
}

// TestStallAccounting checks both sides of sim_engine_stall_seconds: the
// consumer waiting on an unfinished job is a timing stall, the producer
// waiting on a full window a gen stall.
func TestStallAccounting(t *testing.T) {
	timing0, gen0 := mStallTiming.Count(), mStallGen.Count()
	p := NewParEngine(2, 1, Nanosecond)
	defer p.Release()
	release, ran1 := make(chan struct{}), make(chan struct{})
	st := p.Pipeline(3, func(i int) any {
		switch i {
		case 0:
			<-release
		case 1:
			close(ran1)
		}
		return i
	})
	time.AfterFunc(10*time.Millisecond, func() { close(release) })
	st.Next() // job 0 is held: the consumer waits
	<-ran1
	time.Sleep(20 * time.Millisecond)
	st.Next() // meanwhile job 2 waits on the window job 1 fills
	st.Next()
	if mStallTiming.Count() == timing0 || mStallGen.Count() == gen0 {
		t.Fatalf("stalls timing %d->%d, gen %d->%d; want both to grow",
			timing0, mStallTiming.Count(), gen0, mStallGen.Count())
	}
}

// TestStreamOrderProperty fuzzes pipeline shapes (job count, worker count,
// window) and checks results always arrive in submission order — the
// byte-identical guarantee reduced to its ordering core.
func TestStreamOrderProperty(t *testing.T) {
	f := func(nRaw, parRaw, winRaw uint8) bool {
		n := int(nRaw % 64)
		par := 2 + int(parRaw%7)
		win := 1 + int(winRaw%9)
		p := NewParEngine(par, win, Nanosecond)
		defer p.Release()
		st := p.Pipeline(n, func(i int) any { return i })
		for i := 0; i < n; i++ {
			if st.Next().(int) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestScheduledByDomain checks AtD/ScheduleD account events per domain
// without perturbing execution order.
func TestScheduledByDomain(t *testing.T) {
	e := NewEngine()
	var order []string
	e.AtD(DomainGPU, 10, func() { order = append(order, "gpu") })
	e.AtD(DomainCPU, 5, func() { order = append(order, "cpu") })
	e.ScheduleD(DomainPCIe, 20, func() { order = append(order, "pcie") })
	e.AtD(DomainGPU, 15, func() { order = append(order, "gpu2") })
	e.Run()
	want := []string{"cpu", "gpu", "gpu2", "pcie"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	d := e.ScheduledByDomain()
	if d[DomainGPU] != 2 || d[DomainCPU] != 1 || d[DomainPCIe] != 1 || d[DomainHost] != 0 {
		t.Fatalf("domain counts %v", d)
	}
}

// TestDomainStrings pins the accounting names.
func TestDomainStrings(t *testing.T) {
	want := map[Domain]string{
		DomainHost: "host", DomainCPU: "cpu", DomainGPU: "gpu", DomainMem: "mem",
		DomainPCIe: "pcie", DomainVM: "vm", DomainGen: "gen",
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("Domain %d: %q, want %q", d, d.String(), s)
		}
	}
	if FallbackZeroLookahead.String() != "zero-lookahead" ||
		FallbackPersistentKernel.String() != "persistent-kernel" {
		t.Error("fallback reason names changed — they are metric label values")
	}
}
