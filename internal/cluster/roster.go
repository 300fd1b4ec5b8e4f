// Package cluster gives a Prio deployment its multi-server shape: a roster
// of independent prio-server processes, deterministic leadership rotation
// across them per epoch counter, health-checked peers, and failover — when
// the current leader dies, the survivors bump the epoch and the next live
// roster member takes over coordination (the paper's §7 deployment story;
// the roster-driven service arrangement follows dedis/cothority).
//
// Leadership here is coordination duty, not consensus: any server can verify
// any submission (Appendix I), and batch identifiers are namespaced by
// server index, so even two servers briefly acting as leader during a
// transition cannot corrupt state — the cost of a split is only duplicated
// work. That is why a gossiped epoch counter with
// highest-epoch-wins is enough and no election protocol is needed.
package cluster

import (
	"fmt"
	"os"
	"strings"
)

// Roster is the ordered list of deployment members. Index in Addrs is the
// server's protocol index (its share slot); every member must hold the same
// roster for the deterministic rotation to agree.
type Roster struct {
	Addrs []string
}

// MaxMembers bounds a roster: the protocol's ID namespacing carries the
// leader index in a byte, and the liveness bitmap in 64 bits.
const MaxMembers = 64

// ParseRoster parses a comma-separated address list in index order.
func ParseRoster(s string) (*Roster, error) {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return newRoster(addrs)
}

// LoadRoster reads a roster file: one address per line, in index order.
// Blank lines and #-comments are skipped.
func LoadRoster(path string) (*Roster, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var addrs []string
	for _, line := range strings.Split(string(b), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if line = strings.TrimSpace(line); line != "" {
			addrs = append(addrs, line)
		}
	}
	return newRoster(addrs)
}

// LoadOrParseRoster accepts either form: a path to a roster file when one
// exists, otherwise a comma-separated list. This is what the -roster flag
// takes.
func LoadOrParseRoster(s string) (*Roster, error) {
	if _, err := os.Stat(s); err == nil {
		return LoadRoster(s)
	}
	return ParseRoster(s)
}

func newRoster(addrs []string) (*Roster, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: empty roster")
	}
	if len(addrs) > MaxMembers {
		return nil, fmt.Errorf("cluster: roster has %d members, max %d", len(addrs), MaxMembers)
	}
	seen := make(map[string]int, len(addrs))
	for i, a := range addrs {
		if j, dup := seen[a]; dup {
			return nil, fmt.Errorf("cluster: address %q appears at roster indexes %d and %d", a, j, i)
		}
		seen[a] = i
	}
	return &Roster{Addrs: addrs}, nil
}

// N returns the member count.
func (r *Roster) N() int { return len(r.Addrs) }

// String renders the roster as its comma-separated form.
func (r *Roster) String() string { return strings.Join(r.Addrs, ",") }
