package rodinia

import (
	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/workload"
)

// Gaussian is Rodinia's elimination solver: two tiny kernels per column,
// hundreds of serialized launches — the benchmark class whose Cserial
// (unmaskable launch overhead) dominates Eq. 1.
type Gaussian struct{}

func init() { bench.Register(Gaussian{}) }

// Info describes gaussian.
func (Gaussian) Info() bench.Info {
	return bench.Info{
		Suite: "rodinia", Name: "gaussian",
		Desc:   "gaussian elimination, two kernels per column",
		PCComm: true, PipeParal: true, Regular: true,
	}
}

// Run executes gaussian.
func (Gaussian) Run(s *device.System, mode bench.Mode, size bench.Size) {
	n := bench.ScaleSide(96, size)
	block := 96

	a := device.AllocBuf[float32](s, n*n, "matrix_a", device.Host)
	b := device.AllocBuf[float32](s, n, "vector_b", device.Host)
	m := device.AllocBuf[float32](s, n*n, "multipliers", device.Host)
	workload.Matrix(a.V, 51)
	for i := 0; i < n; i++ {
		a.V[i*n+i] += float32(n) // diagonally dominant
		b.V[i] = 1
	}

	s.BeginROI()
	dA, _ := device.ToDevice(s, a)
	dB, _ := device.ToDevice(s, b)
	dM, _ := device.ToDevice(s, m)
	s.Drain()

	for k := 0; k < n-1; k++ {
		kk := k
		rem := n - k - 1
		grid1 := ceilDiv(rem, block)
		// Kernel 1: multipliers for column k.
		s.Launch(device.KernelSpec{
			Name: "gaussian_fan1", Grid: grid1, Block: block,
			Func: func(t *device.Thread) {
				i := t.Global()
				if i >= rem {
					return
				}
				r := kk + 1 + i
				akk := device.Ld(t, dA, kk*n+kk)
				ark := device.Ld(t, dA, r*n+kk)
				t.FLOP(1)
				device.St(t, dM, r*n+kk, ark/akk)
			},
		})
		// Kernel 2: update the trailing submatrix and b.
		s.Launch(device.KernelSpec{
			Name: "gaussian_fan2", Grid: ceilDiv(rem*rem, block), Block: block,
			Func: func(t *device.Thread) {
				x := t.Global()
				if x >= rem*rem {
					return
				}
				r := kk + 1 + x/rem
				c := kk + 1 + x%rem
				mult := device.Ld(t, dM, r*n+kk)
				akc := device.Ld(t, dA, kk*n+c)
				arc := device.Ld(t, dA, r*n+c)
				t.FLOP(2)
				device.St(t, dA, r*n+c, arc-mult*akc)
				if c == kk+1 {
					bk := device.Ld(t, dB, kk)
					br := device.Ld(t, dB, r)
					t.FLOP(2)
					device.St(t, dB, r, br-mult*bk)
				}
			},
		})
	}
	// Back-substitution on the CPU.
	if !s.Unified() {
		device.Memcpy(s, a, dA)
		device.Memcpy(s, b, dB)
	}
	x := device.AllocBuf[float32](s, n, "solution", device.Host)
	s.CPUTask(device.CPUTaskSpec{
		Name: "gaussian_backsub", Threads: 1,
		Func: func(c *device.CPUThread) {
			for i := n - 1; i >= 0; i-- {
				acc := device.Ld(c, b, i)
				row := device.LdN(c, a, i*n+i, n-i)
				for j := i + 1; j < n; j++ {
					acc -= row[j-i] * device.Ld(c, x, j)
				}
				c.FLOP(2 * (n - i))
				device.St(c, x, i, acc/row[0])
			}
		},
	})
	s.EndROI()
	s.AddResult(device.ChecksumF32(x.V))
}
