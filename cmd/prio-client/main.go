// Command prio-client submits private values to a Prio deployment.
//
// The client fetches every roster member's public key, builds the sealed,
// proved submissions locally, asks the roster which member leads, and
// uploads to it over one persistent streamed connection — -n submissions
// pipeline on that single stream with asynchronous acks, instead of paying a
// round-trip (or worse, a dial) per submission. Shed acks (transient server
// backpressure) and stream failures are retried up to -max-attempts, and
// every re-dial asks the roster again, so a leader failover costs a retry
// rather than a loss; the printed ledger separates those retries from
// terminal outcomes. The value syntax depends on the scheme: a decimal
// integer for sums, a comma-separated 0/1 vector for surveys,
// "x1,x2,...;y" for regression.
//
//	prio-client -roster localhost:7000,localhost:7001,localhost:7002 \
//	    -scheme sum8 -value 17 -n 100
//
// TLS is on by default, matching prio-server; pass -tls-ca to authenticate
// the servers against a pinned certificate bundle, or -tls=false for a
// plaintext deployment.
package main

import (
	"crypto/tls"
	"flag"
	"fmt"
	"log"
	"time"

	"prio"
	"prio/internal/cli"
	"prio/internal/cluster"
	"prio/internal/ingest"
	"prio/internal/transport"
)

var (
	rosterFlag  = flag.String("roster", "", "roster file or comma-separated member addresses in index order")
	schemeFlag  = flag.String("scheme", "sum8", "statistic spec (must match the servers)")
	modeFlag    = flag.String("mode", "prio", "validation mode (must match the servers)")
	value       = flag.String("value", "", "private value to submit")
	count       = flag.Int("n", 1, "submit the value this many times over one stream")
	maxAttempts = flag.Int("max-attempts", 4, "delivery attempts per submission before abandoning it")
	useTLS      = flag.Bool("tls", true, "dial the servers over TLS")
	tlsCA       = flag.String("tls-ca", "", "PEM bundle to authenticate the servers against")
)

func main() {
	flag.Parse()
	cli.InitLog()
	if *rosterFlag == "" || *value == "" {
		log.Fatal("prio-client: -roster and -value are required")
	}
	ros, err := cluster.LoadOrParseRoster(*rosterFlag)
	if err != nil {
		log.Fatalf("prio-client: bad -roster: %v", err)
	}
	scheme, err := prio.ParseScheme(*schemeFlag)
	if err != nil {
		log.Fatal(err)
	}
	mode, err := cli.ParseMode(*modeFlag)
	if err != nil {
		log.Fatal(err)
	}
	var tlsCfg *tls.Config
	if *useTLS {
		tlsCfg, err = transport.ClientTLS(*tlsCA)
		if err != nil {
			log.Fatal(err)
		}
	}
	pro, err := prio.NewProtocol(prio.Config{Scheme: scheme, Servers: ros.N(), Mode: mode, Seal: true})
	if err != nil {
		log.Fatal(err)
	}
	keys := make([]*prio.ServerPublicKey, ros.N())
	for i, addr := range ros.Addrs {
		k, err := prio.FetchPublicKeyTLS(addr, tlsCfg)
		if err != nil {
			log.Fatalf("prio-client: fetching key from %s: %v", addr, err)
		}
		keys[i] = k
	}
	client, err := prio.NewClient(pro, keys, nil)
	if err != nil {
		log.Fatal(err)
	}
	enc, err := cli.EncodeValue(scheme, *value)
	if err != nil {
		log.Fatal(err)
	}

	// The failover layer turns shed acks and stream deaths into retries, so
	// the ledger below reports only terminal outcomes — a shed under
	// transient backpressure is re-submitted, not counted as loss. Every
	// dial re-resolves the leader: a member that does not lead refuses the
	// stream, and after a failover the fresh stream lands on the successor.
	stream, err := ingest.NewFailoverSubmitter(ingest.FailoverConfig{
		Dial:        cluster.LeaderDial(ros, cluster.ResolveConfig{TLS: tlsCfg, Timeout: 2 * time.Second}),
		MaxAttempts: *maxAttempts,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer stream.Close()
	for i := 0; i < *count; i++ {
		sub, err := client.BuildSubmission(enc)
		if err != nil {
			log.Fatal(err)
		}
		if err := stream.Submit(sub); err != nil {
			log.Fatal(err)
		}
	}
	stream.Wait()
	st := stream.Stats()
	fmt.Printf("streamed %d encrypted share bundle(s) of %q to the leader of %s: %d accepted, %d rejected, %d abandoned\n",
		st.Submitted, *value, ros, st.Accepted, st.Rejected, st.Abandoned)
	if st.ShedRetried+st.FailedRetried+st.Redials > 0 {
		fmt.Printf("retries: %d shed, %d failed, %d redials\n",
			st.ShedRetried, st.FailedRetried, st.Redials)
	}
}
