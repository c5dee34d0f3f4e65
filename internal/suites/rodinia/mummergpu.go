package rodinia

import (
	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/workload"
)

// MummerGPU is Rodinia's sequence matcher reduced to its pipeline skeleton:
// the GPU walks a reference index table per query (pointer-chasing,
// irregular) while the CPU streams in and preprocesses the next query batch
// — the one benchmark whose ROI overlaps input handling with GPU execution
// (the paper's mummer exception).
type MummerGPU struct{}

func init() { bench.Register(MummerGPU{}) }

// Info describes mummergpu.
func (MummerGPU) Info() bench.Info {
	return bench.Info{
		Suite: "rodinia", Name: "mummergpu",
		Desc:   "suffix-table sequence matching with overlapped query staging",
		PCComm: true, PipeParal: true, Regular: true, Irregular: true,
	}
}

// Run executes mummergpu.
func (MummerGPU) Run(s *device.System, mode bench.Mode, size bench.Size) {
	refLen := bench.ScaleN(65536, size)
	nq := bench.ScaleN(2048, size)
	qLen := 48
	batches := 2
	block := 128

	// The reference "suffix table": next[state*4+symbol] -> state.
	states := refLen / 4
	table := device.AllocBuf[int32](s, states*4, "suffix_table", device.Host)
	depth := device.AllocBuf[int32](s, states, "state_depth", device.Host)
	rng := workload.RNG(141)
	for i := range table.V {
		table.V[i] = int32(rng.Intn(states))
	}
	for i := range depth.V {
		depth.V[i] = int32(rng.Intn(qLen))
	}
	queries := device.AllocBuf[int32](s, nq*qLen, "queries", device.Host)
	workload.Sequence(queries.V, 142)
	matches := device.AllocBuf[int32](s, nq, "match_lengths", device.Host)

	s.BeginROI()
	dTab, _ := device.ToDevice(s, table)
	dDepth, _ := device.ToDevice(s, depth)
	dQ, _ := device.ToDevice(s, queries)
	dM, _ := device.ToDevice(s, matches)
	s.Drain()

	per := nq / batches
	var prevKernel *device.Handle
	for b := 0; b < batches; b++ {
		base := b * per
		// GPU: walk the table for each query in the batch.
		k := s.LaunchAsync(device.KernelSpec{
			Name: "mummer_match", Grid: per / block, Block: block,
			Func: func(t *device.Thread) {
				q := base + t.Global()
				state := int32(0)
				bestDepth := int32(0)
				for j := 0; j < qLen; j++ {
					sym := device.Ld(t, dQ, q*qLen+j)
					state = device.Ld(t, dTab, int(state)*4+int(sym)) // chase
					d := device.Ld(t, dDepth, int(state))
					if d > bestDepth {
						bestDepth = d
					}
					t.FLOP(2)
				}
				device.St(t, dM, q, bestDepth)
			},
		})
		// CPU: stage the next batch (disk-read stand-in) while the GPU runs
		// this one — issued concurrently, no dependency on the kernel.
		if b+1 < batches {
			nb := b + 1
			s.CPUTaskAsync(device.CPUTaskSpec{
				Name: "mummer_stage_queries", Threads: 1,
				Func: func(c *device.CPUThread) {
					for i := nb * per * qLen; i < (nb+1)*per*qLen; i += 32 {
						device.Ld(c, queries, i)
						c.FLOP(4)
					}
				},
			})
		}
		prevKernel = k
	}
	s.Wait(prevKernel)
	s.Drain()
	s.Wait(device.FromDevice(s, matches, dM))
	// CPU post-processing: histogram the match lengths.
	hist := make([]int, qLen+1)
	s.CPUTask(device.CPUTaskSpec{
		Name: "mummer_postprocess", Threads: 1,
		Func: func(c *device.CPUThread) {
			for q := 0; q < nq; q++ {
				m := device.Ld(c, matches, q)
				if int(m) <= qLen {
					hist[m]++
				}
				c.FLOP(1)
			}
		},
	})
	s.EndROI()
	s.AddResult(device.ChecksumI32(matches.V), float64(hist[0]))
}
