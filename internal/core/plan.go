package core

import (
	"fmt"
	"strings"
)

// Decision fixes the strategy (and, for re-partitioning, the job boundary)
// of one index within an operator plan.
type Decision struct {
	// Index is the accessor's position in the operator's AddIndex order.
	Index int
	// Strategy is the chosen access strategy.
	Strategy Strategy
	// Boundary is the materialization point for Repartition plans
	// (IndexLocality always uses BoundaryPre).
	Boundary Boundary
	// Cost is the modeled per-machine cost of this decision, 0 when no
	// statistics were available.
	Cost float64
}

// OperatorPlan orders an operator's indices and assigns each a strategy.
// Per Property 4, indices with Repartition or IndexLocality strategies
// appear before Baseline/LookupCache ones.
type OperatorPlan struct {
	Op        *Operator
	Pos       OpPosition
	Decisions []Decision
	// Cost is the modeled total per-machine cost (0 without statistics).
	Cost float64
}

// String renders the plan compactly, e.g. "geo[repart/pre] events[cache]".
func (p OperatorPlan) String() string {
	parts := make([]string, 0, len(p.Decisions))
	for _, d := range p.Decisions {
		parts = append(parts, fmt.Sprintf("%s[%s]", p.Op.Indices()[d.Index].Name(), candidateName(d.Strategy, d.Boundary)))
	}
	return strings.Join(parts, " ")
}

// shuffleCount returns how many shuffle jobs this operator plan inserts.
func (p OperatorPlan) shuffleCount() int {
	n := 0
	for _, d := range p.Decisions {
		if d.Strategy == Repartition || d.Strategy == IndexLocality {
			n++
		}
	}
	return n
}

// JobPlan assigns a plan to every operator of an EFind job.
type JobPlan struct {
	Head, Body, Tail []OperatorPlan
	// Cost is the modeled total per-machine index-access cost.
	Cost float64
}

// String renders the whole plan.
func (p *JobPlan) String() string {
	var b strings.Builder
	write := func(pos string, plans []OperatorPlan) {
		for _, op := range plans {
			fmt.Fprintf(&b, "%s/%s{%s} ", pos, op.Op.Name(), op.String())
		}
	}
	write("head", p.Head)
	write("body", p.Body)
	write("tail", p.Tail)
	return strings.TrimSpace(b.String())
}

// All returns every operator plan in data-flow order.
func (p *JobPlan) All() []OperatorPlan {
	out := make([]OperatorPlan, 0, len(p.Head)+len(p.Body)+len(p.Tail))
	out = append(out, p.Head...)
	out = append(out, p.Body...)
	out = append(out, p.Tail...)
	return out
}

// PlannerOptions tunes plan enumeration.
type PlannerOptions struct {
	// FullEnumerateLimit is the largest index count m for which all m!
	// orders are enumerated; larger operators fall back to k-Repart
	// (§3.5: "when m is very large, FullEnumerate may be too expensive").
	FullEnumerateLimit int
	// KRepart is the k of the fallback Algorithm k-Repart.
	KRepart int
	// BuildHorizon is how many future runs of the same job the planner
	// credits the build strategy for: the strategy is ranked by
	// cost − BuildHorizon·savings, where savings is the per-future-run
	// serve-time payoff of this run's committed splits. 0 picks the
	// default (4); negative disables the build strategy entirely. The
	// Decision's recorded Cost stays the honest per-run cost — only the
	// ranking is amortized.
	BuildHorizon float64
}

// DefaultBuildHorizon is the default amortization window of the build
// strategy (a LIAH-style assumption that a query family recurs at least
// a handful of times; the adaptive-build experiment validates the
// resulting break-even prediction).
const DefaultBuildHorizon = 4

// buildHorizon resolves the configured horizon.
func (o PlannerOptions) buildHorizon() float64 {
	if o.BuildHorizon == 0 {
		return DefaultBuildHorizon
	}
	if o.BuildHorizon < 0 {
		return 0
	}
	return o.BuildHorizon
}

// DefaultPlannerOptions mirrors the paper's guidance (m ≤ 5 is cheap to
// enumerate; 1-Repart or 2-Repart otherwise).
func DefaultPlannerOptions() PlannerOptions {
	return PlannerOptions{FullEnumerateLimit: 5, KRepart: 2}
}

// baselinePlan is the no-statistics default: natural order, all Baseline.
func baselinePlan(op *Operator, pos OpPosition) OperatorPlan {
	p := OperatorPlan{Op: op, Pos: pos}
	for i := range op.Indices() {
		p.Decisions = append(p.Decisions, Decision{Index: i, Strategy: Baseline})
	}
	return p
}

// uniformPlan assigns one strategy to every index (forced Base/Cache
// experiment modes).
func uniformPlan(op *Operator, pos OpPosition, s Strategy) OperatorPlan {
	p := OperatorPlan{Op: op, Pos: pos}
	for i := range op.Indices() {
		p.Decisions = append(p.Decisions, Decision{Index: i, Strategy: s})
	}
	return p
}

// OptimizeOperator computes the best plan for one operator from its
// statistics using FullEnumerate when m is small and k-Repart otherwise.
// A nil st yields the baseline plan.
func OptimizeOperator(op *Operator, pos OpPosition, st *OperatorStats, env Env, opts PlannerOptions) OperatorPlan {
	if st == nil {
		return baselinePlan(op, pos)
	}
	m := op.NumIndices()
	var orders [][]int
	if m <= opts.FullEnumerateLimit {
		orders = permutations(m)
	} else {
		orders = kPermutations(m, opts.KRepart)
	}
	// Facts are read off each accessor once, not once per order: asking a
	// buildable accessor for its offer allocates.
	var buf [8]IndexFacts
	facts := buf[:0]
	for _, a := range op.Indices() {
		facts = append(facts, factsOf(a, st.Index[a.Name()]))
	}
	best := OperatorPlan{Cost: -1}
	for _, order := range orders {
		p := planForOrder(op, pos, st, env, order, facts, opts.buildHorizon())
		if best.Cost < 0 || p.Cost < best.Cost {
			best = p
		}
	}
	return best
}

// planForOrder applies Property 3 (fixed order ⇒ per-index strategy
// choices independent) and Property 4 (repartitioned indices first) to
// compute the cheapest plan for one access order: per index, the cheapest
// candidate of the price list.
func planForOrder(op *Operator, pos OpPosition, st *OperatorStats, env Env, order []int, facts []IndexFacts, horizon float64) OperatorPlan {
	p := OperatorPlan{Op: op, Pos: pos, Decisions: make([]Decision, 0, len(order))}
	spreEff := st.Spre
	allowShuffle := true
	for _, idx := range order {
		list := price(pos, st, &facts[idx], env, spreEff, horizon)
		q := cheapest(list[:], allowShuffle, true)
		// Property 4: once a non-shuffle strategy is chosen, the
		// remaining indices only consider non-shuffle ones.
		allowShuffle = allowShuffle && isShuffle(q.Strategy)
		d := Decision{Index: idx, Strategy: q.Strategy, Boundary: q.Boundary, Cost: q.Cost()}
		p.Decisions = append(p.Decisions, d)
		p.Cost += d.Cost
		spreEff += attached(&facts[idx].Stats)
	}
	return p
}

// permutations returns all orders of [0, m).
func permutations(m int) [][]int {
	cur := make([]int, 0, m)
	used := make([]bool, m)
	var out [][]int
	var rec func()
	rec = func() {
		if len(cur) == m {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < m; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			cur = append(cur, i)
			rec()
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	rec()
	return out
}

// kPermutations returns the orders of Algorithm k-Repart: each
// k-permutation of [0, m) followed by the remaining indices in natural
// order (only the first k are candidates for shuffle strategies; cost
// evaluation of the rest is order-independent by Property 1).
func kPermutations(m, k int) [][]int {
	if k >= m {
		return permutations(m)
	}
	var out [][]int
	cur := make([]int, 0, k)
	used := make([]bool, m)
	var rec func()
	rec = func() {
		if len(cur) == k {
			order := append([]int(nil), cur...)
			for i := 0; i < m; i++ {
				if !used[i] {
					order = append(order, i)
				}
			}
			out = append(out, order)
			return
		}
		for i := 0; i < m; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			cur = append(cur, i)
			rec()
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	rec()
	return out
}

// planQuotes prices an existing plan under (possibly newer) statistics:
// the candidate each decision chose, in plan order, feasible or not, a
// build credited over horizon future runs. A nil st yields nil: a plan
// without statistics has no price.
func planQuotes(p OperatorPlan, st *OperatorStats, env Env, horizon float64) []Quote {
	if st == nil {
		return nil
	}
	out := make([]Quote, 0, len(p.Decisions))
	spreEff := st.Spre
	for _, d := range p.Decisions {
		a := p.Op.Indices()[d.Index]
		f := factsOf(a, st.Index[a.Name()])
		list := price(p.Pos, st, &f, env, spreEff, horizon)
		out = append(out, quoteFor(list[:], d.Strategy, d.Boundary))
		spreEff += attached(&f.Stats)
	}
	return out
}

// PlanCost re-evaluates an operator plan's cost under (possibly newer)
// statistics; used by Algorithm 1 to compare the current plan against a
// re-optimized one.
func PlanCost(p OperatorPlan, st *OperatorStats, env Env) float64 {
	cost := 0.0
	for _, q := range planQuotes(p, st, env, 0) {
		cost += q.Cost()
	}
	return cost
}

// planRank is what the mid-job re-optimization compares plans by: PlanCost
// less the amortized future payoff of the plan's build decisions. Both
// sides of the comparison are credited, so a build plan competes on the
// amortized ranking the planner used to select it — otherwise "pay a
// little now, win later" could never be accepted mid-job, since its
// honest per-run cost always exceeds the cache strategy's.
func planRank(p OperatorPlan, st *OperatorStats, env Env, opts PlannerOptions) float64 {
	cost, credit := 0.0, 0.0
	for _, q := range planQuotes(p, st, env, opts.buildHorizon()) {
		cost += q.Cost()
		credit += q.Credit()
	}
	return cost - credit
}

// planHasBuild reports whether any decision of the plan uses the build
// strategy (trace instrumentation of the adaptive runtime).
func planHasBuild(p *JobPlan) bool {
	for _, op := range p.All() {
		for _, d := range op.Decisions {
			if d.Strategy == Build {
				return true
			}
		}
	}
	return false
}
