// Package analysis implements the paper's §6.1 throughput decomposition
//
//	T = C · U · (1/⟨D⟩) · (1/AS)
//
// (total capacity × utilization × inverse shortest path length × inverse
// stretch) and the per-metric normalization Fig. 9 plots.
package analysis

import (
	"repro/internal/graph"
	"repro/internal/mcf"
)

// Decomposition captures the four factors of §6.1 for one solved instance.
type Decomposition struct {
	Throughput  float64 // T (per-flow)
	Capacity    float64 // C, total arc capacity
	Utilization float64 // U = total flow volume / C
	SPL         float64 // ⟨D⟩, demand-weighted shortest path length
	Stretch     float64 // AS ≥ 1
}

// Decompose extracts the decomposition from a flow result on g.
func Decompose(g *graph.Graph, res *mcf.Result) Decomposition {
	return Decomposition{
		Throughput:  res.Throughput,
		Capacity:    g.TotalCapacity(),
		Utilization: res.Utilization,
		SPL:         res.DemandSPL,
		Stretch:     res.Stretch,
	}
}

// Identity returns C·U/(⟨D⟩·AS·f): with f the number of unit-demand
// commodities this should approximately reproduce T (exact for an
// exactly-concurrent optimal flow). Tests use it as a consistency check.
func (d Decomposition) Identity(f float64) float64 {
	if d.SPL == 0 || d.Stretch == 0 || f == 0 {
		return 0
	}
	return d.Capacity * d.Utilization / (d.SPL * d.Stretch * f)
}

// NormalizedSeries rescales each metric series so its value at the index
// of peak throughput equals 1, as in Fig. 9 ("we normalize its value with
// respect to its value when the throughput is highest").
type NormalizedSeries struct {
	X          []float64
	Throughput []float64
	Util       []float64
	InvSPL     []float64
	InvStretch []float64
}

// Normalize builds a NormalizedSeries from raw decompositions.
func Normalize(x []float64, ds []Decomposition) NormalizedSeries {
	ns := NormalizedSeries{X: append([]float64(nil), x...)}
	peak := 0
	for i, d := range ds {
		if d.Throughput > ds[peak].Throughput {
			peak = i
		}
	}
	div := func(v, ref float64) float64 {
		if ref == 0 {
			return 0
		}
		return v / ref
	}
	p := ds[peak]
	for _, d := range ds {
		ns.Throughput = append(ns.Throughput, div(d.Throughput, p.Throughput))
		ns.Util = append(ns.Util, div(d.Utilization, p.Utilization))
		invSPL, pInvSPL := safeInv(d.SPL), safeInv(p.SPL)
		ns.InvSPL = append(ns.InvSPL, div(invSPL, pInvSPL))
		invSt, pInvSt := safeInv(d.Stretch), safeInv(p.Stretch)
		ns.InvStretch = append(ns.InvStretch, div(invSt, pInvSt))
	}
	return ns
}

func safeInv(v float64) float64 {
	if v == 0 {
		return 0
	}
	return 1 / v
}
