// Package cloudsvc simulates the paper's "data sources behind cloud
// services": single-node services reached over the network, charged per
// lookup, whose answers may be dynamically computed (the knowledge-base
// service runs machine-learning classifiers — the number of valid keys is
// infinite, so no traditional join can replace the access). Each service
// is deterministic per key, satisfying EFind's idempotence assumption.
package cloudsvc

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"efind/internal/index"
	"efind/internal/sim"
)

// Service is a dynamic index served from one node with a fixed per-lookup
// delay. Compute is the dynamic function (classifier, geo resolver, ...);
// it must be safe for concurrent calls, since the parallel engine issues
// lookups from concurrently executing tasks.
type Service struct {
	name    string
	host    sim.NodeID
	hostSet []sim.NodeID
	delay   float64
	compute func(key string) []string
	calls   atomic.Int64
}

var _ index.Accessor = (*Service)(nil)

// New creates a service on the given host with the per-lookup delay T and
// the dynamic computation fn.
func New(name string, host sim.NodeID, delay float64, fn func(key string) []string) *Service {
	return &Service{name: name, host: host, hostSet: []sim.NodeID{host}, delay: delay, compute: fn}
}

// Name implements index.Accessor.
func (s *Service) Name() string { return s.name }

// Lookup implements index.Accessor: it invokes the dynamic computation.
func (s *Service) Lookup(key string) ([]string, error) {
	s.calls.Add(1)
	return s.compute(key), nil
}

// ServeTime implements index.Accessor.
func (s *Service) ServeTime() float64 { return s.delay }

// HostsFor implements index.Accessor: the single service host.
func (s *Service) HostsFor(string) []sim.NodeID { return s.hostSet }

// Calls returns the number of lookups served (the pay-per-use meter the
// paper wants minimized).
func (s *Service) Calls() int64 { return s.calls.Load() }

// NewGeoService builds the LOG experiment's cloud service: IP address →
// geographical region, deterministically derived from the IP so results
// are stable and verifiable. regions controls the domain size.
func NewGeoService(host sim.NodeID, delay float64, regions int) *Service {
	if regions < 1 {
		regions = 1
	}
	return New("geo-service", host, delay, func(ip string) []string {
		return []string{fmt.Sprintf("region-%02d", hashOf(ip)%uint32(regions))}
	})
}

func hashOf(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}
