// Package prio is a from-scratch Go implementation of Prio, the private,
// robust, and scalable aggregate-statistics system of Corrigan-Gibbs and
// Boneh (NSDI 2017).
//
// A Prio deployment consists of a small set of servers and many clients.
// Each client holds a private value; the servers jointly compute an
// aggregate statistic (a sum, histogram, regression model, …) while learning
// nothing else about any client's value as long as at least one server is
// honest. Malicious clients cannot skew the aggregate beyond misreporting
// their own value: every submission carries a secret-shared non-interactive
// proof (SNIP) that the servers verify cooperatively without seeing the
// data.
//
// # Quick start
//
// Count how many clients have a property, with two servers in one process:
//
//	scheme := prio.NewSum(1) // 1-bit integers: a private counter
//	pro, _ := prio.NewProtocol(prio.Config{
//		Scheme:  scheme,
//		Servers: 2,
//		Mode:    prio.ModePrio,
//		Seal:    true,
//	})
//	cluster, _ := prio.NewLocalCluster(pro)
//	client, _ := prio.NewClient(pro, cluster.PublicKeys(), nil)
//
//	enc, _ := scheme.Encode(1) // this client has the property
//	sub, _ := client.BuildSubmission(enc)
//	cluster.Leader.ProcessBatch([]*prio.Submission{sub})
//
//	agg, n, _ := cluster.Leader.Aggregate()
//	total, _ := scheme.Decode(agg, int(n))
//
// The public API fixes the field to F64, the 64-bit FFT-friendly
// "Goldilocks" prime, with two SNIP repetitions by default (≈2⁻⁹⁰ soundness).
// Deployments needing a single-test 2⁻¹²⁰ bound, or the paper's exact 87-bit
// and 265-bit evaluation fields, can instantiate the generic internal
// packages directly; every type below is an alias into them.
package prio

import (
	"crypto/tls"
	"io"
	"time"

	"prio/internal/afe"
	"prio/internal/core"
	"prio/internal/field"
	"prio/internal/ingest"
	"prio/internal/sealbox"
	"prio/internal/transport"
)

// Element is a field element of the deployment field (F64).
type Element = uint64

// Field is the deployment field type.
type Field = field.F64

// DefaultField returns the deployment field instance.
func DefaultField() Field { return field.NewF64() }

// Mode selects how submissions are validated.
type Mode = core.Mode

// Deployment modes (Section 4, Section 4.4, and the no-robustness baseline
// of Section 6.1).
const (
	// ModePrio verifies client-generated SNIPs (full Prio).
	ModePrio = core.ModeSNIP
	// ModePrioMPC has servers evaluate Valid themselves from client-dealt,
	// SNIP-certified multiplication triples ("Prio-MPC").
	ModePrioMPC = core.ModeMPC
	// ModeNoRobustness skips validation entirely: private sums only.
	ModeNoRobustness = core.ModeNoRobust
)

// Config describes a deployment. Scheme and Servers are required.
type Config struct {
	// Scheme is the aggregate statistic to compute; see the New* AFE
	// constructors.
	Scheme Scheme
	// Servers is the number of aggregation servers (privacy holds if any
	// one is honest; the paper deploys five).
	Servers int
	// Mode selects validation (default ModePrio... the zero value is
	// ModeNoRobustness, so set it explicitly).
	Mode Mode
	// Reps is the SNIP soundness repetition count; 0 means 2, giving
	// ≈2⁻⁹⁰ soundness over F64.
	Reps int
	// Seal encrypts each share to its server (on by default in examples;
	// disable only for microbenchmarks).
	Seal bool
	// ChallengeEvery bounds how many submissions share one verification
	// challenge (Appendix I; 0 means 1024).
	ChallengeEvery int
}

// Core pipeline types, aliased from the generic engine.
type (
	// Protocol is the precomputed, shareable derivation of a Config.
	Protocol = core.Protocol[field.F64, uint64]
	// Client builds submissions.
	Client = core.Client[field.F64, uint64]
	// Submission is one client upload.
	Submission = core.Submission
	// Server is one aggregation server.
	Server = core.Server[field.F64, uint64]
	// Leader is the server coordinating verification.
	Leader = core.Leader[field.F64, uint64]
	// Cluster is an in-process deployment.
	Cluster = core.Cluster[field.F64, uint64]
	// ServerPublicKey encrypts client shares to one server.
	ServerPublicKey = sealbox.PublicKey
	// Pipeline is the sharded concurrent aggregation front-end: it fans a
	// stream of submissions out across several leader sessions that verify
	// batches in parallel (see docs/PIPELINE.md).
	Pipeline = core.Pipeline[field.F64, uint64]
	// PipelineConfig tunes a Pipeline (shard count, batch size, queue
	// depth); the zero value picks sensible defaults.
	PipelineConfig = core.PipelineConfig
	// ShardStats reports a Pipeline's merged (or per-shard) work counters.
	ShardStats = core.ShardStats
	// SubmitResult reports one submission's verification outcome.
	SubmitResult = core.SubmitResult
)

// Streaming ingest types, aliased from internal/ingest (see docs/INGEST.md).
type (
	// StreamSubmitter holds a persistent connection to the leader and
	// pipelines many submissions in flight, with asynchronous per-submission
	// acks matched by ID and credit-based backpressure.
	StreamSubmitter = ingest.StreamSubmitter
	// SubmitterConfig tunes a StreamSubmitter (TLS, ack callback).
	SubmitterConfig = ingest.SubmitterConfig
	// SubmitterStats counts a StreamSubmitter's submissions and outcomes.
	SubmitterStats = ingest.SubmitterStats
	// Ack is one asynchronous per-submission decision.
	Ack = ingest.Ack
	// AckStatus is the decision carried by an Ack.
	AckStatus = ingest.AckStatus
	// IngestServer terminates ingest streams in front of a Pipeline.
	IngestServer = ingest.Server
	// IngestConfig tunes an IngestServer (per-stream credits, intake queue).
	IngestConfig = ingest.Config
	// IngestStats counts an IngestServer's streams and outcomes.
	IngestStats = ingest.Stats
)

// Ack statuses, re-exported from internal/ingest.
const (
	StatusRejected = ingest.StatusRejected
	StatusAccepted = ingest.StatusAccepted
	StatusShed     = ingest.StatusShed
	StatusFailed   = ingest.StatusFailed
)

// NewProtocol validates a Config and precomputes the proof systems.
func NewProtocol(cfg Config) (*Protocol, error) {
	reps := cfg.Reps
	if reps == 0 {
		reps = 2
	}
	return core.NewProtocol(core.Config[field.F64, uint64]{
		Field:          field.NewF64(),
		Scheme:         cfg.Scheme,
		Servers:        cfg.Servers,
		Mode:           cfg.Mode,
		SnipReps:       reps,
		Seal:           cfg.Seal,
		ChallengeEvery: cfg.ChallengeEvery,
	})
}

// NewLocalCluster starts all servers of the deployment in this process,
// wired over byte-counted in-memory channels.
func NewLocalCluster(pro *Protocol) (*Cluster, error) {
	return core.NewLocalCluster(pro)
}

// NewClient builds a submission client. keys must hold each server's public
// key (from Cluster.PublicKeys or FetchPublicKey) when cfg.Seal is set. rnd
// defaults to crypto/rand.
func NewClient(pro *Protocol, keys []*ServerPublicKey, rnd io.Reader) (*Client, error) {
	return core.NewClient(pro, keys, rnd)
}

// NewServer constructs server idx of a networked deployment with a fresh
// key pair; serve its Handler with ListenAndServe.
func NewServer(pro *Protocol, idx int) (*Server, error) {
	return core.NewServer[field.F64, uint64](pro, idx, nil)
}

// Listener accepts protocol connections for a Server.
type Listener = transport.Server

// ListenAndServe exposes a server on a plaintext TCP address (":0" picks a
// free port). Pass the returned listener's Addr to peers and clients.
// Production deployments should prefer ListenAndServeTLS (§6.2: the paper's
// servers always speak TLS); cmd/prio-server defaults to it.
func ListenAndServe(addr string, srv *Server) (*Listener, error) {
	return ListenAndServeTLS(addr, srv, nil)
}

// ListenAndServeTLS exposes a server on a TCP address, requiring TLS when
// tlsCfg is non-nil (see transport.LoadServerTLS for building one from a
// certificate pair or a self-signed fallback).
func ListenAndServeTLS(addr string, srv *Server, tlsCfg *tls.Config) (*Listener, error) {
	return transport.Listen(addr, tlsCfg, srv.Handler())
}

// ConnectLeader makes srv the deployment leader over plaintext TCP; see
// ConnectLeaderTLS.
func ConnectLeader(srv *Server, addrs []string) (*Leader, error) {
	return ConnectLeaderTLS(srv, addrs, nil)
}

// ConnectLeaderTLS makes srv the deployment leader, connecting to every
// other server by address (with TLS when tlsCfg is non-nil). addrs must have
// one entry per server index; the entry for srv itself is ignored (a
// loopback is used). Peers ride the streamed rounds subprotocol: one
// persistent pipelined connection each, with correlation IDs matching
// replies to in-flight calls, so concurrent leader sessions (NewPipeline)
// overlap their verification rounds on the wire instead of queueing behind
// one another. Connections are dialed lazily on first use and re-dialed
// after transport failures, so boot order across the deployment's servers
// does not matter.
func ConnectLeaderTLS(srv *Server, addrs []string, tlsCfg *tls.Config) (*Leader, error) {
	peers := make([]transport.Peer, len(addrs))
	for i, addr := range addrs {
		if i == srv.Index() {
			peers[i] = &transport.LoopbackPeer{Handler: srv.Handler()}
			continue
		}
		peers[i] = transport.NewStreamPeer(addr, tlsCfg)
	}
	return core.NewLeader(srv, peers)
}

// ServeIngest registers the streaming ingest subsystem on a leader's
// listener: stream opens on ln are terminated by a new IngestServer feeding
// pl with credit-based backpressure. Returns the ingest server for stats
// and shutdown. Clients connect with OpenStream.
func ServeIngest(ln *Listener, pl *Pipeline, cfg IngestConfig) *IngestServer {
	ing := ingest.NewServer(pl, cfg)
	ln.OnStream(ing.Handler())
	return ing
}

// OpenStream dials a leader's streaming ingest endpoint. The returned
// StreamSubmitter pipelines submissions over the one connection until the
// server's credit window fills; acks arrive asynchronously via
// cfg.OnAck and Wait drains them.
func OpenStream(addr string, cfg SubmitterConfig) (*StreamSubmitter, error) {
	return ingest.Dial(addr, cfg)
}

// NewPipeline builds a sharded aggregation pipeline in front of leader's
// server set: cfg.Shards concurrent leader sessions verify queued
// submissions in parallel and the servers' accumulators merge their
// results. Submit feeds it; Aggregate drains and publishes.
func NewPipeline(leader *Leader, cfg PipelineConfig) (*Pipeline, error) {
	return core.NewPipeline(leader, cfg)
}

// FetchPublicKey retrieves a remote server's sealbox key over plaintext
// TCP; see FetchPublicKeyTLS.
func FetchPublicKey(addr string) (*ServerPublicKey, error) {
	return FetchPublicKeyTLS(addr, nil)
}

// keyFetchTimeout bounds one FetchPublicKey exchange, dial included (the
// dial alone gives up after the transport's 2 s).
const keyFetchTimeout = 5 * time.Second

// FetchPublicKeyTLS retrieves a remote server's sealbox key, with TLS when
// tlsCfg is non-nil. An address that does not answer is an error within a
// few seconds, not a hang.
func FetchPublicKeyTLS(addr string, tlsCfg *tls.Config) (*ServerPublicKey, error) {
	p := transport.NewStreamPeer(addr, tlsCfg)
	defer p.Close()
	raw, err := p.CallTimeout(core.MsgPublicKey, nil, keyFetchTimeout)
	if err != nil {
		return nil, err
	}
	return sealbox.ParsePublicKey(raw)
}

// Scheme is the interface all field-based aggregate statistics implement;
// see the typed constructors in afe.go for the concrete statistics.
type Scheme = afe.Scheme[uint64]
