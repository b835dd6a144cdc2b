package main

import (
	"math/rand"

	"tnsr/internal/backend"
	"tnsr/internal/bench"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/millicode"
	"tnsr/internal/workloads"
)

// paperNames are the paper's five programs, in table order.
var paperNames = workloads.Names

// backends are the two RISC targets, mips (the paper's, and
// core.Options' default) first.
func backends() []backend.Backend {
	var out []backend.Backend
	for _, n := range []string{"mips", "ob0"} {
		be, ok := backend.ByName(n)
		if !ok {
			panic("backend " + n + " is not registered")
		}
		out = append(out, be)
	}
	return out
}

func mipsBackend() backend.Backend { return backends()[0] }

// userOpts and libOpts are the translation options of a program's user
// codefile and of its system library.
func userOpts(sums map[uint16]int8, lvl codefile.AccelLevel, be backend.Backend) core.Options {
	return core.Options{Level: lvl, Backend: be, LibSummaries: sums}
}

func libOpts(lvl codefile.AccelLevel, be backend.Backend) core.Options {
	return core.Options{Level: lvl, Backend: be, CodeBase: millicode.LibCodeBase, Space: 1}
}

// combo is one (program, level, backend) cell of the translation grid.
type combo struct {
	prog int
	lvl  codefile.AccelLevel
	be   backend.Backend
}

// paperCombos is the grid of the five programs x three levels x the given
// backends.
func paperCombos(bes ...backend.Backend) []combo {
	var out []combo
	for p := range paperNames {
		for _, be := range bes {
			for _, lvl := range bench.Levels {
				out = append(out, combo{prog: p, lvl: lvl, be: be})
			}
		}
	}
	return out
}

func buildUser(name string, iters int) (*codefile.File, error) {
	w, err := workloads.Build(name, iters)
	if err != nil {
		return nil, err
	}
	return w.User, nil
}

// Iteration counts: seeded inputs draw from [1, maxIters] without
// benchtab's own count, so no seeded input collides with a benchtab row or
// with another seeded input of the same program. Set-up's warm-up and the
// backend probe use counts above maxIters, which no seed draws.
const (
	maxIters    = 9999
	warmupIters = 10000
	probeIters  = 20000
)

// coldIterations gives each program a seeded sequence of distinct
// iteration counts, n long (capped at the candidates available).
func coldIterations(seed int64, n int) [][]int {
	out := make([][]int, len(paperNames))
	for p, name := range paperNames {
		rng := rand.New(rand.NewSource(int64(splitmix(uint64(seed)<<8 ^ uint64(p)))))
		for _, v := range rng.Perm(maxIters) {
			if n := v + 1; n != bench.Iterations[name] {
				out[p] = append(out[p], n)
			}
			if len(out[p]) == n {
				break
			}
		}
	}
	return out
}

// splitmix is a 64-bit mixer, so neighbouring indices draw unrelated
// streams.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}
