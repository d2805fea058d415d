// Package tpch generates a TPC-H-shaped data set and composes the paper's
// Q3 and Q9 experiments as EFind index nested-loop joins: the main input
// is the LineItem table, and indices are built on the remaining tables
// (Orders, Customer, Supplier, Part, PartSupp, Nation), following the same
// join orders as MySQL (§5.1).
//
// The structural properties that drive the experiments are preserved:
// LineItem rows of one order are stored consecutively (so Q3's Orders
// lookups have high cache locality), supplier keys are assigned randomly
// (so Q9's Supplier lookups have none), and DupFactor concatenates copies
// of LineItem (TPC-H DUP10's cross-machine redundancy).
package tpch

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"efind/internal/dfs"
	"efind/internal/ixclient"
	"efind/internal/kvstore"
	"efind/internal/mapreduce"
)

// Config scales the data set. ScaleFactor 1 corresponds to 1/1000 of
// TPC-H's row counts per SF unit, keeping all inter-table ratios: 1500
// orders, ~6000 lineitems, 150 customers, 10 suppliers, 200 parts, 800
// partsupps, 25 nations.
type Config struct {
	ScaleFactor float64
	// DupFactor concatenates this many copies of LineItem (1 = plain,
	// 10 = the paper's DUP10).
	DupFactor int
	// ServeTime is the per-lookup serve time of the table indices.
	ServeTime float64
	// Partitions and Replicas configure each index store.
	Partitions, Replicas int
	// SupplierScale multiplies the supplier row count (default 1). At
	// full TPC-H SF10 the paper has 100k suppliers — two orders of
	// magnitude above the 1024-entry lookup cache, which is what makes
	// Q9's cache useless. Simulation-scale runs raise this multiplier to
	// keep distinct suppliers above the cache capacity, preserving that
	// structural property rather than the absolute row ratio.
	SupplierScale int
	Seed          int64
}

// DefaultConfig mirrors the paper's SF10 run at simulation scale.
func DefaultConfig() Config {
	return Config{
		ScaleFactor: 10,
		DupFactor:   1,
		ServeTime:   0.001,
		Partitions:  32,
		Replicas:    3,
		Seed:        1234,
	}
}

// Segments and part name words used by the filters.
var (
	segments  = []string{"BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"}
	colors    = []string{"green", "red", "blue", "ivory", "salmon", "peach", "linen", "navy"}
	nationSet = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
		"GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
		"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
		"VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
	}
)

// Date encoding: days since 1992-01-01; the data spans 7 years like TPC-H.
const dateRange = 7 * 365

// Q3DateCutoff is the o_orderdate < cutoff / l_shipdate > cutoff filter
// date (mid-range, like TPC-H's 1995-03-15).
const Q3DateCutoff = dateRange / 2

// Workload is a generated data set: the LineItem input file plus index
// stores over the other tables.
type Workload struct {
	Input    *dfs.File
	Orders   *kvstore.Store
	Customer *kvstore.Store
	Supplier *kvstore.Store
	Part     *kvstore.Store
	PartSupp *kvstore.Store
	Nation   *kvstore.Store

	// Counts for tests.
	NumOrders, NumLineItems, NumCustomers, NumSuppliers, NumParts int
}

// Setup generates all tables, loads the index stores, and writes the
// LineItem file (duplicated DupFactor times).
func Setup(fs *dfs.FS, name string, cfg Config) (*Workload, error) {
	if cfg.ScaleFactor <= 0 {
		return nil, fmt.Errorf("tpch: scale factor must be positive, got %g", cfg.ScaleFactor)
	}
	if cfg.DupFactor < 1 {
		cfg.DupFactor = 1
	}
	if cfg.Partitions < 1 {
		cfg.Partitions = 32
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cluster := fs.Cluster()

	if cfg.SupplierScale < 1 {
		cfg.SupplierScale = 1
	}
	nOrders := int(1500 * cfg.ScaleFactor)
	nCustomers := int(150 * cfg.ScaleFactor)
	nSuppliers := int(10*cfg.ScaleFactor) * cfg.SupplierScale
	nParts := int(200 * cfg.ScaleFactor)
	if nCustomers < 1 || nSuppliers < 1 || nParts < 1 || nOrders < 1 {
		return nil, fmt.Errorf("tpch: scale factor %g too small", cfg.ScaleFactor)
	}

	w := &Workload{
		Orders:       kvstore.NewHash(cluster, "orders", cfg.Partitions, cfg.Replicas, cfg.ServeTime),
		Customer:     kvstore.NewHash(cluster, "customer", cfg.Partitions, cfg.Replicas, cfg.ServeTime),
		Supplier:     kvstore.NewHash(cluster, "supplier", cfg.Partitions, cfg.Replicas, cfg.ServeTime),
		Part:         kvstore.NewHash(cluster, "part", cfg.Partitions, cfg.Replicas, cfg.ServeTime),
		PartSupp:     kvstore.NewHash(cluster, "partsupp", cfg.Partitions, cfg.Replicas, cfg.ServeTime),
		Nation:       kvstore.NewHash(cluster, "nation", cfg.Partitions, cfg.Replicas, cfg.ServeTime),
		NumOrders:    nOrders,
		NumCustomers: nCustomers,
		NumSuppliers: nSuppliers,
		NumParts:     nParts,
	}

	// Nation.
	for i, n := range nationSet {
		w.Nation.Put(strconv.Itoa(i), n)
	}
	// Customer: custkey → mktsegment|nationkey.
	for c := 0; c < nCustomers; c++ {
		w.Customer.Put(custKey(c), segments[rng.Intn(len(segments))]+"|"+strconv.Itoa(rng.Intn(len(nationSet))))
	}
	// Supplier: suppkey → nationkey|balance.
	for s := 0; s < nSuppliers; s++ {
		w.Supplier.Put(suppKey(s), fmt.Sprintf("%d|%d", rng.Intn(len(nationSet)), rng.Intn(10000)))
	}
	// Part: partkey → name|retailprice. Name embeds a color word for the
	// Q9 LIKE filter.
	for p := 0; p < nParts; p++ {
		color := colors[rng.Intn(len(colors))]
		w.Part.Put(partKey(p), fmt.Sprintf("%s polished %s %d|%d", color, "steel", p, 900+rng.Intn(1000)))
	}

	// Orders and LineItem. LineItem rows of an order stay consecutive.
	// PartSupp dedup probes go through the index client like any runtime
	// lookup; the generator's throwaway context absorbs the charges, and
	// the store's stats are reset below before any experiment runs.
	psClient := ixclient.New(w.PartSupp, ixclient.Options{Op: "tpch-gen"}).
		Bind(mapreduce.NewTaskContext(cluster, 0, 0, mapreduce.MapTask))
	var lineitems []dfs.Record
	line := 0
	for o := 0; o < nOrders; o++ {
		orderDate := rng.Intn(dateRange)
		cust := rng.Intn(nCustomers)
		prio := rng.Intn(5)
		w.Orders.Put(orderKey(o), fmt.Sprintf("%s|%d|%d", custKey(cust), orderDate, prio))
		nl := 1 + rng.Intn(7) // TPC-H: 1–7 lines per order, avg 4
		for l := 0; l < nl; l++ {
			part := rng.Intn(nParts)
			supp := rng.Intn(nSuppliers)
			// PartSupp: composite key partkey:suppkey → supplycost.
			psk := partSuppKey(part, supp)
			if v := psClient.Access(psk); len(v) == 0 {
				w.PartSupp.Put(psk, strconv.Itoa(100+rng.Intn(900)))
			}
			shipDate := orderDate + 1 + rng.Intn(120)
			qty := 1 + rng.Intn(50)
			price := 1000 + rng.Intn(90000)
			disc := rng.Intn(11) // percent
			lineitems = append(lineitems, dfs.Record{
				Key: fmt.Sprintf("%s.%d", orderKey(o), l),
				Value: strings.Join([]string{
					orderKey(o), partKey(part), suppKey(supp),
					strconv.Itoa(qty), strconv.Itoa(price), strconv.Itoa(disc), strconv.Itoa(shipDate),
				}, "|"),
			})
			line++
		}
	}
	w.PartSupp.ResetStats() // the generator probed it; clear before runs
	w.NumLineItems = line * cfg.DupFactor

	// DUPn: concatenate n copies (copy c of a row gets a distinct key so
	// reducers see them all).
	var all []dfs.Record
	for c := 0; c < cfg.DupFactor; c++ {
		for _, r := range lineitems {
			key := r.Key
			if c > 0 {
				key = fmt.Sprintf("%s#%d", r.Key, c)
			}
			all = append(all, dfs.Record{Key: key, Value: r.Value})
		}
	}
	input, err := fs.Create(name, all)
	if err != nil {
		return nil, err
	}
	w.Input = input
	return w, nil
}

// Key formats.
func orderKey(o int) string { return fmt.Sprintf("O%07d", o) }
func custKey(c int) string  { return fmt.Sprintf("C%06d", c) }
func suppKey(s int) string  { return fmt.Sprintf("S%05d", s) }
func partKey(p int) string  { return fmt.Sprintf("P%06d", p) }
func partSuppKey(p, s int) string {
	return partKey(p) + ":" + suppKey(s)
}

// LineItem field accessors over the stored value.
type LineItem struct {
	OrderKey, PartKey, SuppKey      string
	Quantity, Price, Disc, ShipDate int
}

// numFields returns the number of '|'-separated fields of v.
func numFields(v string) int { return strings.Count(v, "|") + 1 }

// field returns the i-th '|'-separated field of v, "" if there is none.
// The operators read one or two fields of a record; cutting them out
// costs nothing, where strings.Split allocates a slice of all of them.
func field(v string, i int) string {
	for ; i > 0; i-- {
		_, v, _ = strings.Cut(v, "|")
	}
	f, _, _ := strings.Cut(v, "|")
	return f
}

// lineItemFields is the number of fields of a LineItem value.
const lineItemFields = 7

// ParseLineItem decodes a LineItem record value.
func ParseLineItem(v string) (LineItem, bool) {
	if numFields(v) != lineItemFields {
		return LineItem{}, false
	}
	li, _, ok := parseLineItemPrefix(v)
	return li, ok
}

// parseLineItemPrefix decodes the LineItem at the front of a record value
// that may carry joined fields after it, and returns those ("" if none).
func parseLineItemPrefix(v string) (li LineItem, rest string, ok bool) {
	var f [lineItemFields]string
	rest, more := v, true
	for i := range f {
		if !more {
			return LineItem{}, "", false // fewer than seven fields
		}
		f[i], rest, more = strings.Cut(rest, "|")
	}
	qty, e1 := strconv.Atoi(f[3])
	price, e2 := strconv.Atoi(f[4])
	disc, e3 := strconv.Atoi(f[5])
	ship, e4 := strconv.Atoi(f[6])
	if e1 != nil || e2 != nil || e3 != nil || e4 != nil {
		return LineItem{}, "", false
	}
	return LineItem{
		OrderKey: f[0], PartKey: f[1], SuppKey: f[2],
		Quantity: qty, Price: price, Disc: disc, ShipDate: ship,
	}, rest, true
}

// Revenue is l_extendedprice·(1−l_discount) in integer cents-ish units.
func (l LineItem) Revenue() int { return l.Price * (100 - l.Disc) / 100 }

// ResetIndexStats clears lookup counters on all stores between runs.
func (w *Workload) ResetIndexStats() {
	for _, s := range []*kvstore.Store{w.Orders, w.Customer, w.Supplier, w.Part, w.PartSupp, w.Nation} {
		s.ResetStats()
	}
}

// TotalLookups sums lookups across all index stores.
func (w *Workload) TotalLookups() int64 {
	var total int64
	for _, s := range []*kvstore.Store{w.Orders, w.Customer, w.Supplier, w.Part, w.PartSupp, w.Nation} {
		total += s.Lookups()
	}
	return total
}
