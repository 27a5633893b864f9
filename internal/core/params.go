package core

import "fmt"

// Hyperparams are the four global constants of §4.4 plus the iteration
// count. From these rowCoeffs derives the per-node weights of eqs.
// (12)–(14).
type Hyperparams struct {
	Alpha      float64
	Beta       float64
	Gamma      float64
	Delta      float64
	Iterations int
}

// DefaultRO returns the paper's chosen configuration for the
// optimisation-based solver: α=1, β=0, γ=3, δ=3 (§5.2).
func DefaultRO() Hyperparams {
	return Hyperparams{Alpha: 1, Beta: 0, Gamma: 3, Delta: 3, Iterations: 10}
}

// DefaultRN returns the paper's chosen configuration for the series-based
// solver: α=1, β=0, γ=3, δ=1 (§5.2).
func DefaultRN() Hyperparams {
	return Hyperparams{Alpha: 1, Beta: 0, Gamma: 3, Delta: 1, Iterations: 10}
}

func (h Hyperparams) withDefaults() Hyperparams {
	if h.Iterations <= 0 {
		h.Iterations = 10
	}
	return h
}

func (h Hyperparams) String() string {
	return fmt.Sprintf("α=%g β=%g γ=%g δ=%g iters=%d", h.Alpha, h.Beta, h.Gamma, h.Delta, h.Iterations)
}

// coeffs are node i's coefficients of eqs. (12)–(14), the one place the
// paper's weighting is written: the row kernels, Loss and CheckConvexity
// all read them. α_i and β_i are fixed per node; the per-group weights
// divide the global γ and δ by a group's degree or size and by |R_i|+1.
type coeffs struct {
	alpha, beta  float64 // α_i = α and β_i = β / (|R_i|+1), eq. (12)
	gamma, delta float64 // the global γ and δ
	rt           float64 // |R_i|+1
}

// rowCoeffs derives node i's coefficients.
func rowCoeffs(p *Problem, h Hyperparams, i int) coeffs {
	rt := float64(p.NumRelTypes[i] + 1)
	return coeffs{alpha: h.Alpha, beta: h.Beta / rt, gamma: h.Gamma, delta: h.Delta, rt: rt}
}

// gammaR is γ^r_i of eq. (12) for a group in which node i has out-degree
// od > 0.
func (c coeffs) gammaR(od int) float64 { return gammaOf(c.gamma, od, c.rt) }

// gammaOf is eq. (12)'s γ / (od_r(j) · (|R_j|+1)) for any node j. RO's
// attraction needs it per edge for the target's γ^r̄_j, where deriving all
// of j's coefficients would cost a division more per edge.
func gammaOf(gamma float64, od int, rt float64) float64 {
	return gamma / (float64(od) * rt)
}

// deltaRO is the constant δ^r of eq. (13) for group g:
// δ / (mc(r)·mr(r)) with mc(r) = max(|S_r|, |T_r|) and mr(r) the cached
// group maximum of |R_i|+1 over participants. It is the same for every
// source of g, and for g and its inverse.
func (c coeffs) deltaRO(g *Group) float64 {
	mc := g.SourceCount
	if g.TargetCount > mc {
		mc = g.TargetCount
	}
	if mc <= 0 || g.MaxRel <= 0 {
		return 0
	}
	return c.delta / (float64(mc) * float64(g.MaxRel))
}

// deltaRN weights the series solver's repulsion from group g's targets
// (eq. 14). §4.2's text states the series subtracts "the centroid of all
// target vectors in the relation", so the weight is δ / (|T_r| · (|R_i|+1)):
// the Σ_{k∈T_r} v_k of eq. (16) times this weight equals δ/(|R_i|+1) times
// the centroid. (Reading eq. 14's |{j:(i,j)∈E_r}| as the per-source
// out-degree instead makes the repulsion grow with |T_r| and collapses all
// vectors onto one direction for any realistically sized relation.)
func (c coeffs) deltaRN(g *Group) float64 {
	if c.delta == 0 || g.TargetCount <= 0 {
		return 0
	}
	return c.delta / (float64(g.TargetCount) * c.rt)
}

// ConvexityReport captures both convexity conditions stated by the paper.
// The body of §4.2 states eq. (7): 4α_i − Σ_r Σ_{j:(i,j)∈Ẽ_r} δ^r_i ≥ 0;
// the appendix proof arrives at eq. (24): α_i ≥ 4 Σ_r Σ_{j∈Ẽ_r(i)} δ^r_i.
// The two differ by where the factor 4 lands (the paper is inconsistent);
// we report both.
type ConvexityReport struct {
	NonNegativeParams bool // α_i, β_i, γ^r_i ≥ 0 for all i, r
	Eq7Holds          bool
	Eq24Holds         bool
	// WorstNode / WorstSlack document the tightest node under eq. (7).
	WorstNode  int
	WorstSlack float64
}

// Convex reports whether the sufficient conditions hold (non-negative
// params plus the body condition eq. 7).
func (r ConvexityReport) Convex() bool { return r.NonNegativeParams && r.Eq7Holds }

// CheckConvexity evaluates the hyperparameter conditions of eq. (7)/(24)
// on a concrete problem.
func CheckConvexity(p *Problem, h Hyperparams) ConvexityReport {
	rep := ConvexityReport{NonNegativeParams: true, Eq7Holds: true, Eq24Holds: true, WorstNode: -1}
	if h.Alpha < 0 || h.Beta < 0 || h.Gamma < 0 {
		rep.NonNegativeParams = false
	}
	groupPtr, groupList := sourceGroupLists(p)
	for i := 0; i < p.N; i++ {
		c := rowCoeffs(p, h, i)
		var deltaSum float64
		for _, gi := range groupList[groupPtr[i]:groupPtr[i+1]] {
			g := &p.Groups[gi]
			// |Ẽ_g(i)| = |T_g| − od_g(i): complements over S×T (see ro.go).
			negCount := float64(g.TargetCount - g.OutDeg(i))
			if negCount < 0 {
				negCount = 0
			}
			deltaSum += negCount * c.deltaRO(g)
		}
		slack := 4*c.alpha - deltaSum
		if rep.WorstNode < 0 || slack < rep.WorstSlack {
			rep.WorstNode, rep.WorstSlack = i, slack
		}
		if slack < 0 {
			rep.Eq7Holds = false
		}
		if c.alpha < 4*deltaSum {
			rep.Eq24Holds = false
		}
	}
	return rep
}
