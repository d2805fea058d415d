package ixclient

// Counter name helpers: EFind statistics ride on MapReduce counters
// (§4.2), namespaced per operator and per index. The client's access
// path is the single writer of these counters; the planner's
// statistics collector (core/stats.go) reads them back by the same names.
func prefix(op, ix string) string { return "efind." + op + ".ix." + ix + "." }

// CtrKeys counts extracted lookup keys (the numerator of Nik).
func CtrKeys(op, ix string) string { return prefix(op, ix) + "keys" }

// CtrKeyBytes accumulates lookup key sizes (Sik).
func CtrKeyBytes(op, ix string) string { return prefix(op, ix) + "key.bytes" }

// CtrValBytes accumulates lookup result sizes (Siv).
func CtrValBytes(op, ix string) string { return prefix(op, ix) + "val.bytes" }

// CtrLookups counts real index accesses performed.
func CtrLookups(op, ix string) string { return prefix(op, ix) + "lookups" }

// CtrServeNS accumulates charged index serve time in nanoseconds (Tj).
func CtrServeNS(op, ix string) string { return prefix(op, ix) + "serve.ns" }

// CtrProbes counts lookup-cache probes (real or shadow).
func CtrProbes(op, ix string) string { return prefix(op, ix) + "cache.probes" }

// CtrMisses counts lookup-cache misses (the numerator of R).
func CtrMisses(op, ix string) string { return prefix(op, ix) + "cache.misses" }

// CtrMulti counts records with more than one key for the index
// (re-partitioning feasibility).
func CtrMulti(op, ix string) string { return prefix(op, ix) + "multikey" }

// CtrErrors counts index accesses that returned an error.
func CtrErrors(op, ix string) string { return prefix(op, ix) + "errors" }

// CtrRetries counts index-level retry attempts after transient errors.
func CtrRetries(op, ix string) string { return prefix(op, ix) + "retries" }

// CtrNetRoundTrips counts charged network round trips to the index — one
// per remote key (one per remote partition group of a multi-get).
func CtrNetRoundTrips(op, ix string) string { return prefix(op, ix) + "net.roundtrips" }

// SkKeys names the FM sketch of distinct lookup keys (Theta).
func SkKeys(op, ix string) string { return prefix(op, ix) + "fm" }

// FMWidth is the per-task FM sketch width used for the Theta estimate.
const FMWidth = 64

// The counters the client itself writes, as indices into the slots it
// resolves them to (Client.Resolve).
const (
	cKeys = iota
	cKeyBytes
	cValBytes
	cLookups
	cServeNS
	cNetRoundTrips
	cProbes
	cMisses
	cErrors
	cRetries
	cUnavailable
	numCounters
)
