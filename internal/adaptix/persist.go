package adaptix

import (
	"fmt"
	"strconv"
	"strings"

	"efind/internal/fstore"
)

// AppendTo adds the registry's state to an fstore builder under the
// given key prefix: one entry per index (prefix + name, revision = total
// build units, values = the covered splits as decimal strings). The job
// service's checkpoint carries it, so fstore's atomic write, verification
// and corruption checks apply: a torn or bit-flipped file is an error at
// open, never silently inflated completeness.
func (r *Registry) AppendTo(b *fstore.Builder, prefix string) {
	for _, name := range r.Names() {
		covered, total := r.CoveredSplits(name)
		vals := make([]string, len(covered))
		for i, s := range covered {
			vals[i] = strconv.Itoa(s)
		}
		b.Add(prefix+name, int64(total), vals...)
	}
}

// LoadFrom merges registry state stored under prefix in an open snapshot
// into r: indices are registered and their persisted coverage marked
// built. Coverage already present in r is kept (MarkBuilt is
// idempotent), so loading after partial in-memory progress unions the
// two.
func (r *Registry) LoadFrom(snap *fstore.Snapshot, prefix string) error {
	for i := 0; i < snap.Len(); i++ {
		key := snap.Key(i)
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		name := strings.TrimPrefix(key, prefix)
		total := int(snap.Revision(i))
		r.Register(name, total)
		vals, err := snap.Values(i)
		if err != nil {
			return err
		}
		for _, v := range vals {
			s, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("adaptix: registry %s: bad split %q for %s: %v", snap.Path(), v, name, err)
			}
			if s < 0 || s >= total {
				return fmt.Errorf("adaptix: registry %s: split %d for %s outside [0,%d)", snap.Path(), s, name, total)
			}
			r.MarkBuilt(name, s)
		}
	}
	return nil
}
