package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randStats builds random-but-plausible operator statistics for m indices.
func randStats(rng *rand.Rand, m int) (*Operator, *OperatorStats) {
	op := NewOperator("prop", nil, nil)
	st := &OperatorStats{
		N1:      float64(1 + rng.Intn(1_000_000)),
		Records: 1,
		S1:      10 + rng.Float64()*1000,
		Spre:    10 + rng.Float64()*1000,
		Spost:   10 + rng.Float64()*1000,
		Smap:    10 + rng.Float64()*1000,
		Index:   map[string]IndexStats{},
	}
	st.Sidx = st.Spre
	for i := 0; i < m; i++ {
		name := fmt.Sprintf("ix%d", i)
		is := IndexStats{
			Nik:      rng.Float64() * 2,
			Sik:      1 + rng.Float64()*100,
			Siv:      1 + rng.Float64()*30000,
			Tj:       rng.Float64() * 0.005,
			Theta:    1 + rng.Float64()*100,
			R:        rng.Float64(),
			MultiKey: rng.Intn(4) == 0,
		}
		st.Index[name] = is
		st.Sidx += is.Nik * (is.Sik + is.Siv)
		if rng.Intn(2) == 0 {
			op.AddIndex(planIdx{fakeAccessor{name: name}, schemeOf(16)})
		} else {
			op.AddIndex(fakeAccessor{name: name})
		}
	}
	return op, st
}

// TestOptimizerProperties checks, over random statistics:
//  1. the plan covers every index exactly once;
//  2. Property 4 holds (shuffle strategies form a prefix);
//  3. shuffle strategies are only assigned to feasible indices;
//  4. PlanCost re-evaluation agrees with the optimizer's cost;
//  5. the plan never costs more than the all-baseline plan.
func TestOptimizerProperties(t *testing.T) {
	env := testEnv12()
	env.JobOverhead = 0.05
	env.LaneFactor = 2
	f := func(seed int64, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(mRaw%4) + 1
		op, st := randStats(rng, m)
		p := OptimizeOperator(op, OpPosition(rng.Intn(3)), st, env, DefaultPlannerOptions())

		if len(p.Decisions) != m {
			return false
		}
		seen := map[int]bool{}
		sawInline := false
		for _, d := range p.Decisions {
			if d.Index < 0 || d.Index >= m || seen[d.Index] {
				return false
			}
			seen[d.Index] = true
			a := op.Indices()[d.Index]
			is := st.Index[a.Name()]
			switch d.Strategy {
			case Repartition, IndexLocality:
				if sawInline {
					return false // Property 4 violated
				}
				if is.MultiKey || is.Nik <= 0 {
					return false // carriers are routed by their single key
				}
				if _, partitioned := a.(planIdx); d.Strategy == IndexLocality && !partitioned {
					return false
				}
			default:
				sawInline = true
			}
		}

		if math.Abs(PlanCost(p, st, env)-p.Cost) > 1e-6*(1+p.Cost) {
			return false
		}

		basePlan := uniformPlan(op, p.Pos, Baseline)
		baseCost := PlanCost(basePlan, st, env)
		return p.Cost <= baseCost+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizerDeterministic: same inputs, same plan.
func TestOptimizerDeterministic(t *testing.T) {
	env := testEnv12()
	rng := rand.New(rand.NewSource(99))
	op, st := randStats(rng, 3)
	a := OptimizeOperator(op, BodyOp, st, env, DefaultPlannerOptions())
	b := OptimizeOperator(op, BodyOp, st, env, DefaultPlannerOptions())
	if a.String() != b.String() || a.Cost != b.Cost {
		t.Fatalf("nondeterministic plans: %v vs %v", a, b)
	}
}

// TestKRepartNeverBeatsFullEnumerate over random stats (it searches a
// subset of the order space).
func TestKRepartNeverBeatsFullEnumerate(t *testing.T) {
	env := testEnv12()
	env.JobOverhead = 0.05
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		op, st := randStats(rng, 4)
		full := OptimizeOperator(op, BodyOp, st, env, PlannerOptions{FullEnumerateLimit: 4, KRepart: 2})
		k1 := OptimizeOperator(op, BodyOp, st, env, PlannerOptions{FullEnumerateLimit: 1, KRepart: 1})
		if full.Cost > k1.Cost+1e-9 {
			t.Fatalf("seed %d: FullEnumerate (%g) worse than 1-Repart (%g)", seed, full.Cost, k1.Cost)
		}
	}
}
