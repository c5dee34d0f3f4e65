package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
)

// serveBenchmarks are cheap small benchmarks (well under 200 ms a run), so
// a pass holds enough misses for a steady miss p90.
var serveBenchmarks = []string{"rodinia/lud", "parboil/cutcp", "rodinia/nw", "parboil/sgemm"}

// key is one distinct request the stream can send: a /v1/run of one
// benchmark in one mode, or a /v1/sweep over a subset of benchmarks.
type key struct {
	path string
	body []byte
}

// classes returns each key's class for genStream: its route.
func classes(keys []key) []int {
	out := make([]int, len(keys))
	for i, k := range keys {
		if k.path == "/v1/sweep" {
			out[i] = 1
		}
	}
	return out
}

// streamKeys lists the stream's distinct requests: every run of every
// serveBenchmarks mode, and a sweep over every pair of serveBenchmarks.
// The set is fixed, so every seed computes the same misses; the seed
// decides only their order and which keys repeat how often. The sweeps
// overlap one another and the single runs, which today share nothing.
//
// Every request keeps jobs threads busy while it misses: a sweep runs
// jobs runs at once, and a single run asks for the parallel engine with
// jobs workers. A serial run's wall time follows the speed of the one
// vCPU it lands on, which on a shared host swings more than the average
// of two (see README.md).
func streamKeys(modes func(string) []string, jobs int) []key {
	var keys []key
	for _, b := range serveBenchmarks {
		for _, m := range modes(b) {
			keys = append(keys, mustKey("/v1/run", map[string]any{"benchmark": b, "mode": m, "size": "small", "parallel": jobs}))
		}
	}
	for i, a := range serveBenchmarks {
		for _, b := range serveBenchmarks[i+1:] {
			keys = append(keys, mustKey("/v1/sweep", map[string]any{"benchmarks": []string{a, b}, "size": "small", "jobs": jobs}))
		}
	}
	return keys
}

func mustKey(path string, req map[string]any) key {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // maps of strings and ints always marshal
	}
	return key{path: path, body: body}
}

// zipfS is the Zipf exponent of key popularity. No recorded hetsimd
// traffic exists to fit it to, so it is an assumption: the Zipfian
// constant YCSB draws keys with by default (Cooper et al., "Benchmarking
// Cloud Serving Systems with YCSB", SoCC 2010).
const zipfS = 0.99

// genStream returns n key indexes: every key at least once, so each pass
// computes exactly len(class) misses, and the n-len(class) repeats split
// among the keys by a Zipf law over a popularity ranking. The seed decides
// the ranking and the order of the requests; the same seed gives the same
// stream. Each class of keys (runs, sweeps) is spread evenly over the
// ranking, so no seed makes the stream mostly one class: what a pass
// costs depends on the seed only through which key of a class is popular.
func genStream(seed int64, class []int, n int) []int {
	k := len(class)
	if n < k {
		n = k
	}
	rng := rand.New(rand.NewSource(seed))
	members := map[int][]int{}
	var order []int // classes in first-seen order, so the seed's draws are reproducible
	for key, c := range class {
		if members[c] == nil {
			order = append(order, c)
		}
		members[c] = append(members[c], key)
	}
	type slot struct {
		pos float64
		key int
	}
	var ranking []slot
	for _, c := range order {
		keys := members[c]
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for j, key := range keys {
			ranking = append(ranking, slot{(float64(j) + 0.5) / float64(len(keys)), key})
		}
	}
	sort.SliceStable(ranking, func(i, j int) bool { return ranking[i].pos < ranking[j].pos })

	weights := make([]float64, k)
	var total float64
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -zipfS)
		total += weights[r]
	}
	repeats := n - k
	counts := make([]int, k)
	left := repeats
	for r := range counts {
		counts[r] = int(float64(repeats) * weights[r] / total)
		left -= counts[r]
	}
	counts[0] += left // rounding remainder to the most popular key

	s := make([]int, 0, n)
	for r, sl := range ranking {
		for i := 0; i <= counts[r]; i++ {
			s = append(s, sl.key)
		}
	}
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}
