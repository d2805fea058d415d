package core

import (
	"fmt"
)

// ValidateOperator dry-runs an operator against sample records and checks
// the contracts EFind depends on, returning the first violation:
//
//   - preProcess must be deterministic (EFind may run it again in a
//     shuffling job after a plan change);
//   - preProcess must not produce more key lists than attached indices;
//   - postProcess must not panic on empty lookup results (indices may
//     miss, and pass-through shuffle records arrive without results);
//   - postProcess must be deterministic given the same inputs.
//
// Use it in application tests before deploying an operator; the runtime
// itself tolerates most violations but they silently break plan
// equivalence (different strategies would produce different outputs).
func ValidateOperator(op *Operator, samples []Pair) error {
	if err := op.validate(); err != nil {
		return err
	}
	for i, s := range samples {
		var a, b carrier
		op.runPre(s, &a)
		op.runPre(s, &b)
		if err := samePre(&a, &b); err != nil {
			return fmt.Errorf("efind: operator %q preProcess is not deterministic on sample %d: %w", op.Name(), i, err)
		}
		if len(a.Keys) > op.NumIndices() {
			return fmt.Errorf("efind: operator %q preProcess emitted %d key lists for %d indices (sample %d)",
				op.Name(), len(a.Keys), op.NumIndices(), i)
		}

		// postProcess with empty results must not panic and must be
		// deterministic.
		empty := make([][]KeyResult, op.NumIndices())
		out1, err := capturePost(op, a.Pair, empty)
		if err != nil {
			return fmt.Errorf("efind: operator %q postProcess failed on empty results (sample %d): %w", op.Name(), i, err)
		}
		out2, _ := capturePost(op, a.Pair, empty)
		if err := samePairs(out1, out2); err != nil {
			return fmt.Errorf("efind: operator %q postProcess is not deterministic (sample %d): %w", op.Name(), i, err)
		}

		// And with synthetic results for every extracted key.
		filled := make([][]KeyResult, op.NumIndices())
		for j := range filled {
			if j < len(a.Keys) {
				for _, ik := range a.Keys[j] {
					filled[j] = append(filled[j], KeyResult{Key: ik, Values: []string{"probe-value"}})
				}
			}
		}
		if _, err := capturePost(op, a.Pair, filled); err != nil {
			return fmt.Errorf("efind: operator %q postProcess failed on synthetic results (sample %d): %w", op.Name(), i, err)
		}
	}
	return nil
}

// samePre compares the outcomes of two preProcess runs structurally.
func samePre(a, b *carrier) error {
	if a.Pair != b.Pair {
		return fmt.Errorf("pair %v vs %v", a.Pair, b.Pair)
	}
	if len(a.Keys) != len(b.Keys) {
		return fmt.Errorf("%d vs %d key lists", len(a.Keys), len(b.Keys))
	}
	for j := range a.Keys {
		if len(a.Keys[j]) != len(b.Keys[j]) {
			return fmt.Errorf("index %d: %d vs %d keys", j, len(a.Keys[j]), len(b.Keys[j]))
		}
		for k := range a.Keys[j] {
			if a.Keys[j][k] != b.Keys[j][k] {
				return fmt.Errorf("index %d key %d: %q vs %q", j, k, a.Keys[j][k], b.Keys[j][k])
			}
		}
	}
	return nil
}

func samePairs(a, b []Pair) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d emissions", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("emission %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// capturePost runs postProcess, converting panics into errors.
func capturePost(op *Operator, pair Pair, results [][]KeyResult) (out []Pair, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	op.runPost(pair, results, func(p Pair) { out = append(out, p) })
	return out, nil
}
