package rodinia

import "repro/internal/workload"

// fillPoints fills dst with the deterministic point set shared by the
// clustering benchmarks.
func fillPoints(dst []float32) { workload.Points(dst, 0xC0FFEE) }

// ceilDiv divides rounding up.
func ceilDiv(a, b int) int { return (a + b - 1) / b }
