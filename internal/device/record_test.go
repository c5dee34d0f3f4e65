package device

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memory"
)

// recCase is one typed-helper call and the op it must record.
type recCase struct {
	name string
	do   func(t *Thread)
	want isa.Op
}

// wide is a padded multi-word element type (24 bytes).
type wide struct {
	A, B float64
	C    int32
}

// typedCases lists the helpers that take any element type, each touching
// element i of b (the N-element ones touch 3 elements from i).
func typedCases[T any](tag string, b *Buf[T], i int) []recCase {
	var z T
	es := int(unsafe.Sizeof(z))
	at := b.A.Base + memory.Addr(i*es)
	return []recCase{
		{tag + "/Ld", func(t *Thread) { Ld(t, b, i) }, isa.Op{Kind: isa.OpLoad, Addr: at, N: uint32(es)}},
		{tag + "/LdDep", func(t *Thread) { LdDep(t, b, i) }, isa.Op{Kind: isa.OpLoadDep, Addr: at, N: uint32(es)}},
		{tag + "/St", func(t *Thread) { St(t, b, i, z) }, isa.Op{Kind: isa.OpStore, Addr: at, N: uint32(es)}},
		{tag + "/LdN", func(t *Thread) { LdN(t, b, i, 3) }, isa.Op{Kind: isa.OpLoad, Addr: at, N: uint32(3 * es)}},
		{tag + "/StN", func(t *Thread) { StN(t, b, i, make([]T, 3)) }, isa.Op{Kind: isa.OpStore, Addr: at, N: uint32(3 * es)}},
	}
}

// recordingCases covers every typed helper over float32, int32 and a wide
// struct, aligned and Misaligned.
func recordingCases(s *System) []recCase {
	f32 := AllocBuf[float32](s, 64, "f32", Host)
	i32 := AllocBuf[int32](s, 64, "i32", Device, Misaligned())
	f64 := AllocBuf[float64](s, 64, "f64", Host, Misaligned())
	w := AllocBuf[wide](s, 64, "wide", Device)
	atom := func(name string, base memory.Addr, do func(t *Thread)) recCase {
		return recCase{name, do, isa.Op{Kind: isa.OpAtomic, Addr: base + 5*4, N: 4}}
	}
	cases := []recCase{
		atom("AtomicAddF32", f32.A.Base, func(t *Thread) { AtomicAddF32(t, f32, 5, 1) }),
		atom("AtomicAddI32", i32.A.Base, func(t *Thread) { AtomicAddI32(t, i32, 5, 1) }),
		atom("AtomicMinI32", i32.A.Base, func(t *Thread) { AtomicMinI32(t, i32, 5, -1) }),
		atom("AtomicCASI32", i32.A.Base, func(t *Thread) { AtomicCASI32(t, i32, 5, 0, 1) }),
	}
	cases = append(cases, typedCases("float32", f32, 7)...)
	cases = append(cases, typedCases("int32", i32, 9)...)
	cases = append(cases, typedCases("float64", f64, 11)...)
	return append(cases, typedCases("wide", w, 13)...)
}

// TestTypedHelpersRecord checks, on a GPU lane and on a CPU thread, that
// every typed helper records one op at Base + i*sizeof(T) of sizeof(T)
// bytes (count*sizeof(T) for LdN/StN).
func TestTypedHelpersRecord(t *testing.T) {
	s := hetero()
	cases := recordingCases(s)
	body := func(th *Thread) {
		for _, c := range cases {
			c.do(th)
		}
	}
	check := func(host string, tr isa.Trace) {
		t.Helper()
		if len(tr) != len(cases) {
			t.Fatalf("%s: recorded %d ops for %d calls", host, len(tr), len(cases))
		}
		for j, c := range cases {
			if tr[j] != c.want {
				t.Errorf("%s %s: recorded %+v, want %+v", host, c.name, tr[j], c.want)
			}
		}
	}
	check("GPU lane", newLaneRecorder(1, body, nil).gen(0)[0])
	var cpu isa.Trace
	s.CPUTask(CPUTaskSpec{Name: "rec", Threads: 1, Func: func(c *CPUThread) {
		body(c)
		cpu = slices.Clone(c.tr) // the trace is recycled after its replay
	}})
	check("CPU thread", cpu)
}

// TestElemSizeIsSizeof checks ElemSize is sizeof(T) with or without
// elements, so a zero-length buffer records correctly sized accesses too.
func TestElemSizeIsSizeof(t *testing.T) {
	s := hetero()
	for _, c := range []struct {
		name string
		got  [2]int // from an AllocBuf, and from an empty Buf
		want uintptr
	}{
		{"float32", [2]int{AllocBuf[float32](s, 0, "a", Host).ElemSize(), (&Buf[float32]{}).ElemSize()}, unsafe.Sizeof(float32(0))},
		{"int32", [2]int{AllocBuf[int32](s, 3, "b", Host).ElemSize(), (&Buf[int32]{}).ElemSize()}, unsafe.Sizeof(int32(0))},
		{"float64", [2]int{AllocBuf[float64](s, 0, "c", Host).ElemSize(), (&Buf[float64]{}).ElemSize()}, unsafe.Sizeof(float64(0))},
		{"wide", [2]int{AllocBuf[wide](s, 0, "d", Host).ElemSize(), (&Buf[wide]{}).ElemSize()}, unsafe.Sizeof(wide{})},
	} {
		if c.got[0] != int(c.want) || c.got[1] != int(c.want) {
			t.Errorf("%s: ElemSize %v, want %d", c.name, c.got, c.want)
		}
	}
}

// TestCPUThreadIsTaskLane checks a CPU thread reports its task's TID and
// thread count, and that LaunchChild still panics on it.
func TestCPUThreadIsTaskLane(t *testing.T) {
	s := NewSystem(config.DiscreteGPU())
	var tids, counts []int
	panicked := 0
	s.CPUTask(CPUTaskSpec{Name: "ids", Threads: 3, Func: func(c *CPUThread) {
		tids = append(tids, c.TID())
		counts = append(counts, c.Threads())
		defer func() {
			if recover() != nil {
				panicked++
			}
		}()
		c.LaunchChild(KernelSpec{})
	}})
	if !slices.Equal(tids, []int{0, 1, 2}) || !slices.Equal(counts, []int{3, 3, 3}) {
		t.Fatalf("TID() %v and Threads() %v, want [0 1 2] and [3 3 3]", tids, counts)
	}
	if panicked != 3 {
		t.Fatalf("LaunchChild panicked on %d of 3 CPU threads", panicked)
	}
}
