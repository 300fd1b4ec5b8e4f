package cluster

import (
	"crypto/tls"
	"fmt"
	"time"

	"prio/internal/ingest"
	"prio/internal/transport"
)

// ResolveConfig tunes client-side leader discovery.
type ResolveConfig struct {
	// TLS is the dial configuration (nil = plaintext).
	TLS *tls.Config
	// Timeout bounds each member's MsgClusterInfo round trip (default 1s),
	// so resolution over a roster with dead members stays fast.
	Timeout time.Duration
}

// Resolve asks every roster member for its cluster Info and returns the
// highest-epoch view plus the leader's address. Clients (prio-load, the
// failover submitter) call it before dialing an ingest stream and again
// after a stream dies — the re-targeting that rides out a leader kill.
// Members that are down or mid-restart are skipped; it fails only when no
// member answers.
func Resolve(r *Roster, cfg ResolveConfig) (Info, string, error) {
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = time.Second
	}
	var best Info
	found := false
	var lastErr error
	for _, addr := range r.Addrs {
		p := transport.NewStreamPeer(addr, cfg.TLS)
		resp, err := p.CallTimeout(MsgClusterInfo, nil, timeout)
		p.Close()
		if err != nil {
			lastErr = err
			continue
		}
		info, err := ParseInfo(resp)
		if err != nil {
			lastErr = err
			continue
		}
		if int(info.N) != r.N() {
			lastErr = fmt.Errorf("cluster: member %s reports roster size %d, ours is %d", addr, info.N, r.N())
			continue
		}
		if !found || info.Epoch > best.Epoch {
			best = info
			found = true
		}
	}
	if !found {
		return Info{}, "", fmt.Errorf("cluster: no roster member answered: %w", lastErr)
	}
	if int(best.Leader) >= r.N() {
		return Info{}, "", fmt.Errorf("cluster: reported leader %d outside roster", best.Leader)
	}
	return best, r.Addrs[best.Leader], nil
}

// LeaderDial is an ingest.FailoverConfig.Dial over the roster: it resolves
// the leader on every call, so after a failover the fresh stream lands on
// the successor.
func LeaderDial(r *Roster, cfg ResolveConfig) func(onAck func(ingest.Ack)) (*ingest.StreamSubmitter, error) {
	return func(onAck func(ingest.Ack)) (*ingest.StreamSubmitter, error) {
		_, addr, err := Resolve(r, cfg)
		if err != nil {
			return nil, err
		}
		return ingest.Dial(addr, ingest.SubmitterConfig{TLS: cfg.TLS, OnAck: onAck})
	}
}
