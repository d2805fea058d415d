package tpch

import (
	"strconv"
	"strings"

	"efind/internal/core"
	"efind/internal/mapreduce"
)

// firstValue returns the first value of a lookup's first result, and
// whether there is one.
func firstValue(results []core.KeyResult) (string, bool) {
	if len(results) == 0 || len(results[0].Values) == 0 {
		return "", false
	}
	return results[0].Values[0], true
}

// Q3Conf composes TPC-H Q3 as an EFind job: LineItem (main input) joins
// Orders then Customer via index lookups, following MySQL's join order;
// Map emits (l_orderkey, o_orderdate, o_shippriority) → revenue and Reduce
// sums. Filters: l_shipdate > cutoff, o_orderdate < cutoff, c_mktsegment =
// 'BUILDING'.
func (w *Workload) Q3Conf(name string, mode core.Mode) *core.IndexJobConf {
	ordersOp := core.NewOperator("q3-orders",
		func(in core.Pair) core.PreResult {
			li, ok := ParseLineItem(in.Value)
			if !ok || li.ShipDate <= Q3DateCutoff {
				return core.PreResult{Pair: in} // filtered: no lookup
			}
			return core.OneKey(in, li.OrderKey)
		},
		func(pair core.Pair, results [][]core.KeyResult, emit core.Emit) {
			order, ok := firstValue(results[0]) // none: pre filtered the record
			if !ok {
				return
			}
			if numFields(order) != 3 { // custkey|orderdate|prio
				return
			}
			orderDate, err := strconv.Atoi(field(order, 1))
			if err != nil || orderDate >= Q3DateCutoff {
				return
			}
			emit(core.Pair{Key: pair.Key, Value: pair.Value + "|" + order})
		})
	ordersOp.AddIndex(w.Orders)

	customerOp := core.NewOperator("q3-customer",
		func(in core.Pair) core.PreResult {
			if numFields(in.Value) != 10 {
				return core.PreResult{Pair: in}
			}
			return core.OneKey(in, field(in.Value, 7)) // custkey
		},
		func(pair core.Pair, results [][]core.KeyResult, emit core.Emit) {
			cust, ok := firstValue(results[0])
			if !ok {
				return
			}
			if seg := field(cust, 0); seg != "BUILDING" {
				return
			}
			emit(pair)
		})
	customerOp.AddIndex(w.Customer)

	conf := &core.IndexJobConf{
		Name:  name,
		Input: w.Input,
		Mode:  mode,
		Mapper: func(_ *mapreduce.TaskContext, in core.Pair, emit core.Emit) {
			if numFields(in.Value) != 10 {
				return
			}
			li, joined, ok := parseLineItemPrefix(in.Value) // joined: custkey|orderdate|prio
			if !ok {
				return
			}
			_, datePrio, _ := strings.Cut(joined, "|")
			emit(core.Pair{
				Key:   li.OrderKey + "|" + datePrio, // orderkey|orderdate|prio
				Value: strconv.Itoa(li.Revenue()),
			})
		},
		Reducer: sumReducer,
	}
	conf.AddHeadIndexOperator(ordersOp)
	conf.AddHeadIndexOperator(customerOp)
	return conf
}

// Q3RepartTarget names the operator/index pair the paper hand-picks for
// Q3's forced re-partitioning runs ("the index with the most benefits":
// Orders).
func (w *Workload) Q3RepartTarget() (op, ix string) { return "q3-orders", w.Orders.Name() }

// Q9Conf composes TPC-H Q9: LineItem joins Supplier, Part (with the
// p_name LIKE '%green%' filter), PartSupp, Orders, and finally Nation, in
// MySQL's join order; Map emits (nation, year) → profit amount and Reduce
// sums.
func (w *Workload) Q9Conf(name string, mode core.Mode) *core.IndexJobConf {
	supplierOp := core.NewOperator("q9-supplier",
		func(in core.Pair) core.PreResult {
			li, ok := ParseLineItem(in.Value)
			if !ok {
				return core.PreResult{Pair: in}
			}
			return core.OneKey(in, li.SuppKey)
		},
		func(pair core.Pair, results [][]core.KeyResult, emit core.Emit) {
			supp, ok := firstValue(results[0])
			if !ok {
				return
			}
			nation := field(supp, 0)
			emit(core.Pair{Key: pair.Key, Value: pair.Value + "|" + nation})
		})
	supplierOp.AddIndex(w.Supplier)

	partOp := core.NewOperator("q9-part",
		func(in core.Pair) core.PreResult {
			if numFields(in.Value) != 8 {
				return core.PreResult{Pair: in}
			}
			return core.OneKey(in, field(in.Value, 1)) // partkey
		},
		func(pair core.Pair, results [][]core.KeyResult, emit core.Emit) {
			part, ok := firstValue(results[0])
			if !ok {
				return
			}
			name := field(part, 0)
			if !strings.Contains(name, "green") {
				return
			}
			emit(pair)
		})
	partOp.AddIndex(w.Part)

	partSuppOp := core.NewOperator("q9-partsupp",
		func(in core.Pair) core.PreResult {
			if numFields(in.Value) != 8 {
				return core.PreResult{Pair: in}
			}
			return core.OneKey(in, field(in.Value, 1)+":"+field(in.Value, 2))
		},
		func(pair core.Pair, results [][]core.KeyResult, emit core.Emit) {
			cost, ok := firstValue(results[0])
			if !ok {
				return
			}
			emit(core.Pair{Key: pair.Key, Value: pair.Value + "|" + cost})
		})
	partSuppOp.AddIndex(w.PartSupp)

	ordersOp := core.NewOperator("q9-orders",
		func(in core.Pair) core.PreResult {
			if numFields(in.Value) != 9 {
				return core.PreResult{Pair: in}
			}
			return core.OneKey(in, field(in.Value, 0)) // orderkey
		},
		func(pair core.Pair, results [][]core.KeyResult, emit core.Emit) {
			order, ok := firstValue(results[0])
			if !ok {
				return
			}
			if numFields(order) != 3 {
				return
			}
			date, err := strconv.Atoi(field(order, 1))
			if err != nil {
				return
			}
			emit(core.Pair{Key: pair.Key, Value: pair.Value + "|" + strconv.Itoa(1992+date/365)})
		})
	ordersOp.AddIndex(w.Orders)

	nationOp := core.NewOperator("q9-nation",
		func(in core.Pair) core.PreResult {
			if numFields(in.Value) != 10 {
				return core.PreResult{Pair: in}
			}
			return core.OneKey(in, field(in.Value, 7)) // nationkey
		},
		func(pair core.Pair, results [][]core.KeyResult, emit core.Emit) {
			nation, ok := firstValue(results[0])
			if !ok {
				return
			}
			emit(core.Pair{Key: pair.Key, Value: pair.Value + "|" + nation})
		})
	nationOp.AddIndex(w.Nation)

	conf := &core.IndexJobConf{
		Name:  name,
		Input: w.Input,
		Mode:  mode,
		Mapper: func(_ *mapreduce.TaskContext, in core.Pair, emit core.Emit) {
			if numFields(in.Value) != 11 {
				return
			}
			li, joined, ok := parseLineItemPrefix(in.Value) // joined: nationkey|cost|year|nation
			if !ok {
				return
			}
			cost, err := strconv.Atoi(field(joined, 1))
			if err != nil {
				return
			}
			amount := li.Revenue() - cost*li.Quantity
			emit(core.Pair{Key: field(joined, 3) + "|" + field(joined, 2), Value: strconv.Itoa(amount)})
		},
		Reducer: sumReducer,
	}
	conf.AddHeadIndexOperator(supplierOp)
	conf.AddHeadIndexOperator(partOp)
	conf.AddHeadIndexOperator(partSuppOp)
	conf.AddHeadIndexOperator(ordersOp)
	conf.AddHeadIndexOperator(nationOp)
	return conf
}

// Q9RepartTarget names the operator/index pair the paper hand-picks for
// Q9's forced re-partitioning runs (Supplier).
func (w *Workload) Q9RepartTarget() (op, ix string) { return "q9-supplier", w.Supplier.Name() }

// sumReducer sums integer values per group.
func sumReducer(_ *mapreduce.TaskContext, key string, values []string, emit core.Emit) {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			continue
		}
		total += n
	}
	emit(core.Pair{Key: key, Value: strconv.Itoa(total)})
}
